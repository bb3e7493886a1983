"""Acceptance suite: every identity the package promises, at its stated
scale and tolerance, one criterion per test.

Everything here is an exact identity except where a truncation tail is
involved (criterion 7), whose bound is itself exact.  Each test prints a
single pass/fail line; the collected lines are echoed in the pytest
terminal summary.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from heckezonal.distinction import distinction_integral, growth_bfs, growth_closed_form, poincare_value
from heckezonal.gelfand import check_pairing, load_catalog
from heckezonal.hecke import HeckeAlgebra, chi, verify_presentation
from heckezonal.scalars import LaurentPoly, scalar_inverse, scalar_power
from heckezonal.spherical import (
    SphericalParams,
    matrix_coefficient_scalar,
    verify_eigen_generator,
    verify_eigen_pi,
)
from heckezonal.tensor import PlaceOperator, ev, t_operator
from heckezonal.weyl import (
    ExtendedWeylElement,
    all_reduced_words,
    enumerate_by_length,
    pi_element,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def record(number: int, description: str, ok: bool, elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {number}: {status} - {description}{timing}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_presentation_suite():
    start = time.monotonic()
    ok = all(verify_presentation(e).ok for e in (2, 3, 4))
    elapsed = time.monotonic() - start
    record(1, "relations (i)-(vi) exact with generic q1, e in {2,3,4}", ok and elapsed < 5.0, elapsed)


def test_criterion_2_length_oracle():
    start = time.monotonic()
    ok = True
    for e in (2, 3, 4):
        for dist, layer in enumerate(enumerate_by_length(e, 8)):
            for w0 in layer:
                if w0.length() != dist:
                    ok = False
    elapsed = time.monotonic() - start
    record(2, "inversion length = BFS distance, length <= 8, e in {2,3,4}", ok and elapsed < 30.0, elapsed)


def test_criterion_3_character():
    ok = True
    for e in (2, 3, 4):
        algebra = HeckeAlgebra(e, LaurentPoly.variable())
        pi = algebra.basis(pi_element(e))
        pi_inv = algebra.basis(pi_element(e).inverse())
        for ell, layer in enumerate(enumerate_by_length(e, 8)):
            sign = (-1) ** ell
            for w0 in layer:
                h = algebra.basis(ExtendedWeylElement(0, w0))
                if chi(h) != sign:
                    ok = False
                for i in range(e):
                    if chi(algebra.generator_basis(i) * h) != -sign:
                        ok = False
                if chi(pi * h) != sign or chi(pi_inv * h) != sign:
                    ok = False
    record(3, "chi([w]) = (-1)**l(w) to length 8 and chi multiplicative under generators", ok)


def test_criterion_4_eigen_equation():
    ok = True
    for e in (2, 3):
        params = SphericalParams.generic(e)
        for i in range(e):
            report = verify_eigen_generator(i, 10, params)
            if not (report.ok and report.checked > 0 and not report.failures):
                ok = False
        pi_report = verify_eigen_pi(10, params)
        if not (pi_report.ok and pi_report.checked > 0):
            ok = False
        if pi_report.boundary_skipped <= 0:
            ok = False  # boundary must be reported separately, not silently absent
    record(4, "eigen-equation interior coefficients exact at L=10, e in {2,3}, all generators and pi", ok)


def test_criterion_5_operator_oracle():
    ok = True
    for e in (3, 5):
        layers = enumerate_by_length(e, 6)
        for f in (1, 2):
            for q0 in (2, 3):
                params = SphericalParams.numeric(e, f, q0)
                neg_inv_q1 = -scalar_inverse(params.q1)
                for ell, layer in enumerate(layers):
                    for w0 in layer:
                        closed = matrix_coefficient_scalar(w0, params)
                        for k in range(e):
                            operator = ev(ExtendedWeylElement(k, w0), params)
                            if scalar_power(neg_inv_q1, ell) * operator.scale != closed:
                                ok = False
        # reduced-word independence, exhaustively at length <= 6
        for layer in layers:
            for w0 in layer:
                ops = set()
                for word in all_reduced_words(w0):
                    op = PlaceOperator.identity(e)
                    for idx in word:
                        op = op.compose(t_operator(idx, e))
                    ops.add(op)
                if len(ops) != 1:
                    ok = False
    record(5, "operator scale matches closed coefficient form, e in {3,5}, f in {1,2}, q0 in {2,3}", ok)


def test_criterion_6_growth_vs_closed_form():
    ok = True
    for e in (2, 3, 4):
        if growth_bfs(e, 12) != growth_closed_form(e, 12):
            ok = False
    if growth_bfs(2, 12)[:4] != (1, 2, 2, 2):
        ok = False
    if growth_bfs(3, 12)[:4] != (1, 3, 6, 9):
        ok = False
    record(6, "BFS growth counts equal closed-form coefficients to degree 12, e in {2,3,4}", ok)


def test_criterion_7_distinction_integral():
    start = time.monotonic()
    report = distinction_integral(3, 1, 2, 40)
    elapsed_1 = time.monotonic() - start
    ok = (
        report.closed_form == 1
        and report.per_term_ok
        and report.abs_error < report.tail_bound
        and report.tail_bound < Fraction(1, 10**6)
        and elapsed_1 < 10.0
    )
    start = time.monotonic()
    report3 = distinction_integral(3, 1, 3, 40)
    elapsed_2 = time.monotonic() - start
    ok = ok and report3.closed_form == Fraction(21, 16) and report3.per_term_ok and elapsed_2 < 10.0
    record(7, "coset sum: closed form 1 at (3,1,2) and 21/16 at (3,1,3), tail < 1e-6", ok, elapsed_1 + elapsed_2)


def test_criterion_8_nonvanishing():
    ok = True
    for e in (2, 3, 4, 5, 6):
        for q0 in (2, 3, 4, 5):
            for f in (1, 2):
                if poincare_value(e, Fraction(-1, q0**f)) <= 0:
                    ok = False
    record(8, "Poincare series positive at -1/q0**f for e in 2..6, q0 in 2..5, f in {1,2}", ok)


def test_criterion_9_gelfand_pairing():
    wanted = {"s3_standard_vs_s2", "s4_standard_vs_s3"}
    ok = True
    seen = set()
    for item in load_catalog():
        if item["name"] not in wanted:
            continue
        seen.add(item["name"])
        report = check_pairing(item["rep"], item["subgroup"])
        if (report.dim_fixed, report.dim_fixed_dual) != (1, 1):
            ok = False
        if report.pairing is None or report.pairing == 0:
            ok = False
    ok = ok and seen == wanted
    record(9, "standard pairs (S3,S2), (S4,S3): fixed lines 1-dimensional, pairing nonzero", ok)


def test_criterion_10_cli_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    args = [
        sys.executable, "-m", "heckezonal",
        "distinction", "--e", "3", "--f", "1", "--q0", "2", "--L", "30",
    ]
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    ok = first.returncode == 0 and first.stdout == second.stdout
    ok = ok and json.loads(first.stdout)["closed_form"] == "1/1"
    # coefficient reads --seed for its sampled k-invariance checks
    seeded = [sys.executable, "-m", "heckezonal", "coefficient", "--e", "3", "--L", "4", "--seed", "42"]
    first = subprocess.run(seeded, capture_output=True, env=env)
    second = subprocess.run(seeded, capture_output=True, env=env)
    ok = ok and first.returncode == 0 and first.stdout == second.stdout
    ok = ok and json.loads(first.stdout)["seed"] == 42
    record(10, "repeated CLI runs with a fixed seed are byte-identical", ok)

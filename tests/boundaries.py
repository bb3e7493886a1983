"""Every budget boundary of the command line, as literals.

``ROWS`` holds one argv per boundary at the default caps: its exit code
and, for a refused argv (exit 2), the parts of its stderr message: the
flags and section it names, ``could need N <quantity>`` and ``cap of C
<quantity>``.  Each row also holds the ``timeout`` in seconds the CI
installed-package step runs it under and, where a run is heavy, its
``ulimit -v`` limit in KiB.  ``tests/test_cli.py`` checks every row in
process: a refused one exits 2 at once, an accepted one passes
validation; CI runs every row as the installed command.

``EXACT`` holds one argv per cap a test lowers: the cap, the quantity,
the count the argv could need, and the flags and section the message
names.  Under a cap of count - 1 the run exits 2 before its command is
called; under a cap of count it runs.

No value here is computed: a change to a cost function that moves a
boundary fails until its row is edited.
"""

ROWS = [
    # a BFS to length L holds the elements of length at most L: N(0..22)
    # = 1,390,236 at e = 7; far over the cap, the lower bound 1 + e*L
    {"argv": "growth --e 7 --L 22", "code": 2, "timeout": 5,
     "err": ("--e 7 --L 22: growth", "could need 1390236 elements", "cap of 1000000 elements")},
    {"argv": "growth --e 1000000 --L 1000000", "code": 2, "timeout": 5,
     "err": ("--e 1000000 --L 1000000: growth", "could need 1000000000001 elements", "cap of 1000000 elements")},
    # each element holds e window slots and the step table e(e-1) more:
    # N(0..2) = 501,501 at e = 1000 is under the element cap
    {"argv": "growth --e 1000 --L 2", "code": 2, "timeout": 5,
     "err": ("--e 1000 --L 2: growth", "could need 502500000 slots", "cap of 10000000 slots")},
    {"argv": "growth --e 2236 --L 1", "code": 0, "timeout": 10},
    {"argv": "growth --e 2237 --L 1", "code": 2, "timeout": 5,
     "err": ("--e 2237 --L 1: growth", "could need 10008338 slots", "cap of 10000000 slots")},
    # the growth series has degree e, not about e**2 / 2: a quadratic
    # expansion would not finish in time at e = 200
    {"argv": "growth --e 200 --L 1", "code": 0, "timeout": 10},
    # e (e-2)(e-3)/2 + e (e-1) slots; family (vi) at e = 2000 would run
    # for hours, and all meets presentation's budget first
    {"argv": "presentation --e 272", "code": 0, "timeout": 30},
    {"argv": "presentation --e 273", "code": 2, "timeout": 5,
     "err": ("--e 273: presentation", "could need 10061961 slots", "cap of 10000000 slots")},
    {"argv": "presentation --e 2000", "code": 2, "timeout": 10,
     "err": ("--e 2000: presentation", "could need 3994004000 slots", "cap of 10000000 slots")},
    {"argv": "all --e 2000", "code": 2, "timeout": 5,
     "err": ("--e 2000: presentation", "could need 3994004000 slots", "cap of 10000000 slots")},
    # eigen at L = 1: e + 1 elements of 2e + 51 slots, the step table, 2
    # rows of psi0 values and one length's 81 slots.  At e = 2 the BFS has
    # 2L + 1 elements; the last accepted run peaks at about 245 MB of
    # address space (Python 3.11, 6 s), so 500,000 KiB is about a 1.9x
    # margin
    {"argv": "eigen --e 1817 --L 1", "code": 0, "timeout": 10},
    {"argv": "eigen --e 1818 --L 1", "code": 2, "timeout": 5,
     "err": ("--e 1818 --L 1: eigen", "could need 10010168 slots", "cap of 10000000 slots")},
    {"argv": "eigen --e 2 --L 39215", "code": 0, "timeout": 20, "ulimit": 500000},
    {"argv": "eigen --e 2 --L 39216", "code": 2, "timeout": 5,
     "err": ("--e 2 --L 39216: eigen", "could need 10000201 slots", "cap of 10000000 slots")},
    # coefficient at L = 0: one window and ev's word, e slots each, 2e
    # perms of e slots that share one tuple's ints and the step table,
    # 3e**2 + e; the last accepted run peaks at about 106 MB of address
    # space (Python 3.11), so 250,000 KiB leaves a 2x margin
    {"argv": "coefficient --e 1825 --L 0", "code": 0, "timeout": 10, "ulimit": 250000},
    {"argv": "coefficient --e 1826 --L 0", "code": 2, "timeout": 5,
     "err": ("--e 1826 --L 0: coefficient", "could need 10004654 slots", "cap of 10000000 slots")},
    # the digits of exact values, bounded from bit lengths before any is
    # computed; a list of points is named by its flag only
    {"argv": "poincare --e 200", "code": 0, "timeout": 10},
    {"argv": "poincare --e 4000", "code": 2, "timeout": 5,
     "err": ("--e 4000: poincare", "could need 6021 digits", "cap of 4300 digits")},
    {"argv": "poincare --e 4000 --points=-1/25,1/3", "code": 2, "timeout": 5,
     "err": ("--e 4000 --points: poincare", "could need 6021 digits", "cap of 4300 digits")},
    # at L = 0 growth still expands (1 - X)**e, one row of binomials
    {"argv": "growth --e 14283 --L 0", "code": 0, "timeout": 10},
    {"argv": "growth --e 14284 --L 0", "code": 2, "timeout": 5,
     "err": ("--e 14284 --L 0: growth", "could need 4301 digits", "cap of 4300 digits")},
    # the denominator Q**L of the partial sum, Q = 7**30, alone has some
    # 4,560 digits
    {"argv": "distinction --e 3 --f 30 --q0 7 --L 180", "code": 2, "timeout": 5,
     "err": ("--e 3 --f 30 --q0 7 --L 180: distinction", "could need 4685 digits", "cap of 4300 digits")},
    {"argv": "all --e 3 --f 30 --q0 7 --L 180", "code": 2, "timeout": 5,
     "err": ("--e 3 --f 30 --q0 7 --L 180: distinction", "could need 4685 digits", "cap of 4300 digits")},
]

# (argv, cap, quantity, count, the flags and section the message names)
EXACT = [
    # N(0..3) = 1 + 3 + 6 + 9 = 19 elements at e = 3
    ("eigen --e 3 --L 3", "weyl.ENUM_CAP", "elements", 19, "--e 3 --L 3: eigen"),
    ("coefficient --e 3 --L 3", "weyl.ENUM_CAP", "elements", 19, "--e 3 --L 3: coefficient"),
    ("growth --e 3 --L 3", "weyl.ENUM_CAP", "elements", 19, "--e 3 --L 3: growth"),
    ("distinction --e 3 --L 3", "weyl.ENUM_CAP", "elements", 19, "--e 3 --f 1 --q0 2 --L 3: distinction"),
    ("all --e 3 --L 3", "weyl.ENUM_CAP", "elements", 19, "--e 3 --L 3: eigen"),
    # 19 windows of 3 slots and the step table's 6: 63.  coefficient
    # holds 2 * 57 + 18 + 6 = 138.  eigen, which all runs too, holds 63 +
    # 19 * 54 per element, 4 * 64 per psi0 row and 3 * 81 per length
    ("eigen --e 3 --L 3", "weyl.SLOT_CAP", "slots", 1588, "--e 3 --L 3: eigen"),
    ("coefficient --e 3 --L 3", "weyl.SLOT_CAP", "slots", 138, "--e 3 --L 3: coefficient"),
    ("growth --e 3 --L 3", "weyl.SLOT_CAP", "slots", 63, "--e 3 --L 3: growth"),
    ("distinction --e 3 --L 3", "weyl.SLOT_CAP", "slots", 63, "--e 3 --f 1 --q0 2 --L 3: distinction"),
    ("all --e 3 --L 3", "weyl.SLOT_CAP", "slots", 1588, "--e 3 --L 3: eigen"),
    # at e = 17 presentation's 2,057 is over eigen's 2,011 at L = 1
    ("presentation --e 6 --samples 0", "weyl.SLOT_CAP", "slots", 66, "--e 6: presentation"),
    ("all --e 17 --L 1", "weyl.SLOT_CAP", "slots", 2057, "--e 17: presentation"),
    ("poincare --e 7", "cli.DIGIT_CAP", "digits", 11, "--e 7: poincare"),
    ("poincare --e 9 --points 1/7", "cli.DIGIT_CAP", "digits", 9, "--e 9 --points: poincare"),
    ("all --e 3 --L 3", "cli.DIGIT_CAP", "digits", 5, "--e 3: poincare"),
    # the distinction sum's digits are over poincare's
    ("distinction --e 3 --f 2 --q0 3 --L 20", "cli.DIGIT_CAP", "digits", 30,
     "--e 3 --f 2 --q0 3 --L 20: distinction"),
    ("all --e 3 --f 2 --q0 3 --L 4", "cli.DIGIT_CAP", "digits", 11, "--e 3 --f 2 --q0 3 --L 4: distinction"),
]

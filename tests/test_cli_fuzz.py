"""Property test: any JSON input ends in exit code 0, 2 or 3, never an exception.

Every subcommand is run in-process through ``cli.main`` on documents built
from a small pool of awkward floats (NaN, infinities, values at the edge of
the disc, the extremes of double precision), in the shapes the commands
read, and on arbitrary JSON.
"""

import contextlib
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schurcol import cli

POOL = (0.0, 0.5, -0.5, 1.0, -1.0, 0.3, 1.0 - 1e-12, float("nan"),
        float("inf"), float("-inf"), 1e308, 1e-300)
KEYS = ("params", "zeros", "c", "num", "den", "matrix", "n",
        "first", "second", "s0", "dims", "e1", "e2", "h")

number = st.sampled_from(POOL)
cplx = st.lists(number, min_size=2, max_size=2)
vector = st.lists(cplx, min_size=1, max_size=4)


def _square(size):
    return st.lists(st.lists(cplx, min_size=size, max_size=size),
                    min_size=size, max_size=size)


@st.composite
def _signed_permutation(draw):
    """A unitary matrix of 0 and +-1, with at most one entry from the pool."""
    size = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(size)))
    rows = [[[0.0, 0.0] for _ in range(size)] for _ in range(size)]
    for i, j in enumerate(perm):
        rows[i][j] = [draw(st.sampled_from((1.0, -1.0))), 0.0]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        rows[i][j] = draw(cplx)
    return rows


matrix = st.one_of(st.integers(1, 4).flatmap(_square), _signed_permutation())
# unimodular often enough that the terminal parameter and the constant c
# pass their circle check and the command gets further
unimodular = st.sampled_from(([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])) | cplx
params = st.fixed_dictionaries(
    {"params": st.tuples(st.lists(cplx, max_size=3), unimodular).map(lambda p: p[0] + [p[1]])}
)
zeros = st.fixed_dictionaries({"zeros": st.lists(cplx, max_size=3), "c": unimodular})
rational = st.fixed_dictionaries({"num": vector, "den": vector})
colligation = st.fixed_dictionaries({"matrix": matrix}, optional={"n": st.integers(0, 4)})
partitioned = st.fixed_dictionaries(
    {
        "dims": st.fixed_dictionaries(
            {"e1": st.just(1), "e2": st.just(1), "h": st.integers(0, 2)}
        ),
        "matrix": matrix,
    }
)
couple = st.fixed_dictionaries(
    {"first": st.fixed_dictionaries({"s0": cplx}) | partitioned, "second": colligation}
)
arbitrary = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | number | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
document = st.one_of(
    params,
    zeros,
    rational,
    colligation,
    couple,
    st.dictionaries(st.sampled_from(KEYS), arbitrary, min_size=1, max_size=4),
    arbitrary,
)

text_number = number.map(repr)
# per subcommand: its options, and the documents it reads
commands = {
    "realize": (st.tuples(st.just("--route"), st.sampled_from(["model", "closed-form"])),
                params | zeros),
    "schur": (st.just(()), colligation),
    "hessenberg": (st.tuples(st.just("--orientation"), st.sampled_from(["lower", "upper"])),
                   colligation),
    "couple": (st.tuples(st.just("--samples"), st.integers(0, 4).map(str)), couple),
    "eval": (st.tuples(st.just("--z"), text_number, text_number), colligation | rational),
    "verify": (st.tuples(st.just("--samples"), st.integers(0, 4).map(str)), colligation),
    "params": (st.just(()), params | zeros | rational),
}
invocation = st.sampled_from(sorted(commands)).flatmap(
    lambda name: st.tuples(
        commands[name][0].map(lambda extra: [name, *extra]),
        commands[name][1] | document,
    )
)


def run_main(argv, text):
    """Exit code of ``schurcol ARGV`` with ``text`` on stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        # argparse rejects an option value such as "--z 0 -inf" with exit 2
        return exc.code
    finally:
        sys.stdin = stdin


# numpy warns on inf - inf and on overflow; those inputs must still end in
# an exit code, so the warnings are not errors here
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation)
def test_every_input_ends_in_an_exit_code(call):
    argv, doc = call
    assert run_main(argv, json.dumps(doc)) in (0, 2, 3)

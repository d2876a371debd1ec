"""The input contract of the CLI and the public cycle functions, with warnings as errors.

Any input, finite or not, must give a result or a typed ``AnyonOttoError``:
each library call returns or raises one, and ``cli.main`` returns one of
its documented exit codes, 0, 1, 2 or 64, with no traceback on stderr.
Every draw runs under ``warnings.simplefilter("error")``, so a warning that
reaches the user (a numpy overflow, say) fails it.  The draws are
derandomized and come from two strata: any double, with inf, nan, -0, the
least subnormal, 1.7e308 and the literal 1e400 (inf once parsed) mixed in;
and valid specs, whose sorted betas and positive lengths span the whole
positive double range and whose controls lie in [0, 3].
"""

import contextlib
import io
import math
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyon_otto.cli import main
from anyon_otto.closed_form import cs_efficiency_value, ring_efficiency_value
from anyon_otto.errors import AnyonOttoError
from anyon_otto.otto import MEDIUM, OttoCycleSpec, run_cycle

EXIT_CODES = {0, 1, 2, 64}
EDGES = ("inf", "-inf", "nan", "-0", "5e-324", "1.7e308", "1e400")

ANY_TEXT = st.floats().map(repr) | st.sampled_from(EDGES)
ANY = st.floats() | st.sampled_from(EDGES).map(float)
POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308) | st.sampled_from([5e-324, 1.7e308])
CONTROL = st.floats(0.0, 3.0)
# Per medium, the strategy of each named parameter's valid values, in MEDIUM order.
VALID = {
    "ring": (CONTROL, CONTROL, POSITIVE),
    "cs-volume": (POSITIVE, POSITIVE, CONTROL),
    "cs-coupling": (CONTROL, CONTROL, POSITIVE),
}
# The constructors take the medium's parameter names as keywords.
CONSTRUCTORS = {
    "ring": OttoCycleSpec.ring_cycle,
    "cs-volume": OttoCycleSpec.cs_volume_cycle,
    "cs-coupling": OttoCycleSpec.cs_coupling_cycle,
}
# Both take (control, control, beta_h, beta_l, scale) in MEDIUM's order.
VALUES = {"ring": ring_efficiency_value, "cs-coupling": cs_efficiency_value}
SETTINGS = settings(max_examples=600, deadline=None, derandomize=True, database=None)


@st.composite
def sorted_betas(draw):
    return tuple(sorted((draw(POSITIVE), draw(POSITIVE))))


@st.composite
def cycle_values(draw, stratum):
    """(medium, beta_h, beta_l, parameter values in MEDIUM order) from one stratum."""
    medium = draw(st.sampled_from(sorted(MEDIUM)))
    if stratum == "any":
        return medium, draw(ANY), draw(ANY), tuple(draw(ANY) for _ in MEDIUM[medium].params)
    return medium, *draw(sorted_betas()), tuple(draw(s) for s in VALID[medium])


def flag(name: str, value) -> str:
    """``--name=value``: joined, so that a value such as -1e+308 is not read as a flag."""
    return f"--{name.replace('_', '-')}={value}"


@st.composite
def cycle_argvs(draw, stratum):
    """(argv of ``cycle``, its axes by name): the drawn cycle, its numbers as text."""
    medium, beta_h, beta_l, values = draw(cycle_values(stratum))
    names = ["beta_h", "beta_l", *(p.name for p in MEDIUM[medium].params)]
    axes = dict(zip(names, (beta_h, beta_l, *values)))
    if stratum == "any":
        axes = {name: draw(ANY_TEXT) for name in axes}
    return ["cycle", f"--medium={medium}", *(flag(k, v) for k, v in axes.items())], axes


@st.composite
def sweep_argvs(draw, stratum):
    """A ``sweep`` argv along one of the drawn cycle's axes, over at most four points.

    The grid runs from the cycle's value of that axis to a second draw of it, or
    to the same value where the second draw's medium has no such axis.
    """
    argv, axes = draw(cycle_argvs(stratum))
    axis = draw(st.sampled_from(sorted(axes)))
    stop = draw(cycle_argvs(stratum))[1].get(axis, axes[axis])
    grid = f"--grid={axes[axis]}:{stop}:{draw(st.integers(0, 4))}"
    return ["sweep", *argv[1:], f"--sweep={axis}", grid]


def exit_code(argv, out_dir=None) -> int:
    """``main(argv)``'s exit code under warnings as errors; its stderr must hold no traceback."""
    if out_dir is not None:
        argv = [*argv, "--out", out_dir]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert "Traceback" not in stderr.getvalue(), (argv, stderr.getvalue())
    return code


def returns_or_raises_typed(call):
    """``call()``'s value under warnings as errors, or None where it raises AnyonOttoError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except AnyonOttoError:
            return None


@SETTINGS
@given(argv=st.one_of(cycle_argvs("any"), cycle_argvs("valid")).map(lambda drawn: drawn[0]))
@example(
    argv="cycle --medium ring --alpha-h 3.8034282974645546 --alpha-l 7.531810359943064e-09 "
    "--beta-h 0.3705631597060697 --beta-l 1.7e308 --eps0 31999.410474638014".split()
)
@example(
    argv="cycle --medium cs-coupling --alpha1 0 --alpha2 1 --beta-h 0.5 --beta-l 1.7e308".split()
)
def test_cycle_command_exits_with_a_documented_code(argv):
    assert exit_code(argv) in EXIT_CODES, argv


def test_sweep_command_exits_with_a_documented_code():
    with tempfile.TemporaryDirectory() as out_dir:

        @SETTINGS
        @given(argv=st.one_of(sweep_argvs("any"), sweep_argvs("valid")))
        def check(argv):
            assert exit_code(argv, out_dir) in EXIT_CODES, argv

        check()


@SETTINGS
@given(drawn=st.one_of(cycle_values("any"), cycle_values("valid")))
@example(drawn=("ring", 0.3705631597060697, 1.7e308, (3.8034282974645546, 7.5e-09, 31999.4)))
@example(drawn=("cs-coupling", 0.5, 1.7e308, (0.0, 1.0, 1.0)))
def test_run_cycle_returns_or_raises_typed(drawn):
    medium, beta_h, beta_l, values = drawn
    named = {p.name: value for p, value in zip(MEDIUM[medium].params, values)}
    returns_or_raises_typed(
        lambda: run_cycle(CONSTRUCTORS[medium](beta_h=beta_h, beta_l=beta_l, **named))
    )


@SETTINGS
@given(drawn=st.one_of(cycle_values("any"), cycle_values("valid")))
@example(drawn=("ring", 0.3705631597060697, 1.7e308, (3.8034282974645546, 7.5e-09, 31999.4)))
@example(drawn=("cs-coupling", 0.5, 1.7e308, (0.0, 1.0, 1.0)))
# Both energy sums of the hot isochore overflow: eta would be inf/inf.
@example(drawn=("cs-coupling", 1e-200, 1.0, (0.0, 1.0, 1.0)))
def test_efficiency_values_return_or_raise_typed(drawn):
    medium, beta_h, beta_l, values = drawn
    if medium in VALUES:
        eta = returns_or_raises_typed(
            lambda: VALUES[medium](*values[:2], beta_h, beta_l, values[2])
        )
        assert eta is None or not math.isnan(eta), drawn

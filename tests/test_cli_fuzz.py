"""A derandomized fuzz of the command-line grammar.

Hypothesis draws type strings (valid, isomorphic aliases, total rank above
8, junk), contact forms theta (ints, fractions, 10^k for k <= 30, empty
fields, junk), paintings and --m10 JSON (malformed shapes included), and
runs each command in process through crlie.cli.main, passing some
option values as tokens of their own.  Every call must exit 0, 2 or 64,
raise nothing (an exception escaping main would print a traceback), write
exactly one line to stderr on exit 64, and end within BUDGET seconds,
timed in the test process.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings, strategies as st
from test_crstruct import _cli_digest

from crlie import cli
from crlie.rootsys import RootSystemError, canon_str, parse_components, parse_type

BUDGET = 2.0  # seconds a call may take
DIGEST = _cli_digest()
# the (type, theta, spec) of every --m10 check of tools/cli_digest.py
DIGEST_M10 = DIGEST.M10_CHECKS + DIGEST.M10_MORE

VALID = ("A1", "A3", "B2", "B4", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2",
         "A1+A1", "A2+G2", "B3+C3", "A1+E6")
ALIASES = ("B1", "C2", "D3", "A1+B1", "C2+A1")
ABOVE = ("A9", "A200", "E8+A1", "B5+C4", "D99", "G2+E7")
JUNK = ("", "A", "Q3", "A-1", "A0", "E5", "E9", "F3", "G3", "a3", "A3+", "+", "A1++A1",
        " A2 ", "A1 + A1", "A²", "A٣", "B", "A 3", "A3:w", "A1.5")
# valid types drawn three times as often as each other group
TYPES = st.one_of(*(st.sampled_from(group)
                    for group in (VALID, VALID, VALID, ALIASES, ABOVE, JUNK)))


def _system(tag):
    """The system a type string names, when it is valid and of total rank
    at most 8."""
    try:
        if sum(r for _, r in parse_components(tag)) <= 8:
            return parse_type(tag)
    except RootSystemError:
        pass
    return None


NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 3)),
    st.builds(lambda sign, k: sign + "1" + "0" * k, st.sampled_from(("", "-")),
              st.integers(0, 30)),
)
COORDINATES = NUMBERS | st.sampled_from(("", " ", "a", "x1", "1.5", "1e3", "nan", "inf",
                                         "--1", "1/", "/2", "1/0", "3/-2", "½", "0x10", "1_0",
                                         "1 0"))


@st.composite
def thetas(draw, system):
    """A root, or the sum or difference of two, scaled by 10^k, or
    comma-separated numbers or other fields, usually as many as the
    ambient dimension of system (a few when it is None)."""
    kind = draw(st.sampled_from(("root", "root", "numbers", "fields")))
    if system is not None and kind == "root":
        roots = st.sampled_from(system.roots)
        v = draw(roots)
        if draw(st.booleans()):
            v = v + draw(roots) if draw(st.booleans()) else v - draw(roots)
        return canon_str(draw(st.sampled_from((1, -2, 10**6, 10**30))) * v)
    dim = system.dim if system is not None else draw(st.integers(1, 4))
    n = max(0, dim + draw(st.sampled_from((0, 0, 0, -1, 1))))
    fields = NUMBERS if kind == "numbers" else COORDINATES
    return ",".join(draw(st.lists(fields, min_size=n, max_size=n)))


def _roots(system):
    """The ambient coordinates of the system's roots, as --m10 prints them."""
    return [canon_str(r) for r in system.roots] if system is not None else ["1,0,-1"]


def m10_parts(system):
    """A strategy per key of an --m10 spec (and one misspelt key): a
    well-formed part or a malformed one."""
    roots = st.sampled_from(_roots(system))
    coeffs = st.one_of(
        st.sampled_from(("t", "s", "2*t", "s*t", "-1*t", "t^2", "t^100", "t^101",
                         "t^50*t^51", "t^10000000", "t~", "", "1/2", "t**2", "2t")),
        st.integers(-2, 2),
    )
    vectors = st.one_of(roots, roots, st.just("1,0"), st.just("1/0,0,0"), st.integers(0, 3))
    junk = st.one_of(st.integers(-2, 2), st.text(max_size=4), st.none(),
                     st.lists(st.integers(0, 2), max_size=3))
    return {
        "pairs": st.one_of(st.lists(st.lists(st.one_of(vectors, coeffs), min_size=1,
                                             max_size=4), max_size=3),
                           st.lists(st.tuples(roots, roots, coeffs).map(list), max_size=3),
                           junk),
        "plains": st.one_of(st.lists(vectors, max_size=4), junk),
        "rj_plus": st.one_of(st.just("positive"), st.just("postive"),
                             st.lists(vectors, max_size=6), junk),
        "su2": st.one_of(st.tuples(roots, coeffs).map(list),
                         st.lists(st.one_of(vectors, coeffs), max_size=3), junk),
        "plain": st.lists(roots, max_size=2),
    }


@st.composite
def m10_specs(draw, system):
    """--m10 JSON: a few of the keys, each with a drawn part."""
    parts = m10_parts(system)
    keys = draw(st.lists(st.sampled_from(sorted(parts)), unique=True, max_size=3))
    return _json(draw, {k: draw(parts[k]) for k in keys})


def _json(draw, spec):
    """spec as JSON, or now and then a JSON list, number or no JSON."""
    shape = draw(st.sampled_from(("object",) * 8 + ("list", "number", "text")))
    if shape == "list":
        return json.dumps([spec])
    if shape == "number":
        return "3"
    return "{" if shape == "text" else json.dumps(spec)


@st.composite
def paintings(draw):
    tag = draw(TYPES)
    system = _system(tag)
    rank = system.rank if system is not None else draw(st.integers(1, 4))
    n = max(0, rank + draw(st.sampled_from((0, 0, 0, -1, 1))))
    colors = draw(st.lists(st.sampled_from("wbg" * 4 + "x") | st.sampled_from(("", "gg", "W")),
                           min_size=n, max_size=n))
    sep = draw(st.sampled_from((":", ":", "", "::")))
    return f"{tag}{sep}{','.join(colors)}"


@st.composite
def commands(draw):
    """A command line, some of whose --opt=value options are passed as the
    two tokens --opt value, so that argparse reads a value that starts
    with "-" as an option and reports its own errors."""
    argv = draw(command_lines())
    return [part for token in argv
            for part in (token.split("=", 1) if token.startswith("--") and "=" in token
                         and draw(st.booleans()) else [token])]


@st.composite
def command_lines(draw):
    kind = draw(st.sampled_from(("roots", "rank", "family", "m10", "digest", "graph")))
    fmt = ["--format=" + draw(st.sampled_from(("text", "json", "csv")))]
    if kind == "digest":
        return draw(digest_m10_commands()) + fmt
    if kind == "graph":
        return ["check", f"--graph={draw(paintings())}"] + fmt
    tag = draw(TYPES)
    if kind == "roots":
        return ["roots", f"--type={tag}"] + fmt
    if kind == "rank":
        return (["roots", f"--type={draw(st.sampled_from('ABCDEFGQ'))}",
                 f"--rank={draw(st.integers(-2, 12) | st.sampled_from((200, 10**6)))}"] + fmt)
    system = _system(tag)
    argv = ["check", f"--type={tag}", f"--theta={draw(thetas(system))}"]
    if kind == "family":
        return argv + ["--family"] + fmt
    return argv + [f"--m10={draw(m10_specs(system))}"] + fmt


@st.composite
def digest_m10_commands(draw):
    """A check --m10 of tools/cli_digest.py, with a few of its parts
    dropped or replaced, or its coefficients raised to drawn powers."""
    tag, theta, spec = draw(st.sampled_from(DIGEST_M10))
    system = parse_type(tag)
    spec = dict(spec)
    for key in draw(st.lists(st.sampled_from(sorted(spec)), unique=True)):
        if draw(st.booleans()):
            del spec[key]
        else:
            spec[key] = draw(m10_parts(system)[key])
    exp = draw(st.sampled_from((None, None, 2, 100, 101, 10**7)))
    text = _json(draw, spec)
    if exp is not None:
        text = text.replace('"t"', f'"t^{exp}"').replace('"s"', f'"s^{exp}"')
    return ["check", f"--type={tag}", f"--theta={theta}", f"--m10={text}"]


def _run(argv):
    """(exit code, stderr, seconds) of one in-process call; an exception
    other than SystemExit propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue(), time.perf_counter() - start


@given(commands())
@settings(derandomize=True, max_examples=400, deadline=None)
def test_every_command_line_ends_cleanly(argv):
    code, err, seconds = _run(argv)
    assert code in (0, 2, 64), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 64:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    assert seconds < BUDGET, (argv, seconds)

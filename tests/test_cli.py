"""End-to-end command line behaviour, run in process through main()."""

import signal

import pytest

from idealdec import cli
from idealdec.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNKNOWN,
    SCHEMA_LINE,
    build_parser,
    main,
)

XYXZ = "ring Q[x,y,z]\nx*y\nx*z\n"
CUBIC = "ring Q[x,y,z]\ny - x^2\nz - x^3\n"


@pytest.fixture()
def gens_file(tmp_path):
    def make(text, name="input.gens"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return make


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:  # argparse usage errors exit directly
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build ----------------------------------------------------------------


def test_build_paper_3x12(capsys):
    code, out, err = run(capsys, "build", "paper-3x12")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[0] == "# paper-3x12"
    assert lines[1] == "ring Q[x1..x12,y1..y12,z1..z12]"
    assert lines[2] == (
        "x1*y4*z7 - x1*y7*z4 - x4*y1*z7 + x4*y7*z1 + x7*y1*z4 - x7*y4*z1"
    )
    assert len(lines) == 18  # comment + header + 16 generators


def test_build_p1_minors(capsys):
    code, out, err = run(capsys, "build", "p1-minors")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 222  # comment + header + 220 minors


def test_build_writes_out_file(capsys, tmp_path):
    target = tmp_path / "out.gens"
    code, out, err = run(capsys, "build", "paper-3x12", "--out", str(target))
    assert code == EXIT_OK
    assert len(target.read_text().splitlines()) == 18


def test_build_from_spec_file(capsys, tmp_path):
    spec = tmp_path / "tiny.spec"
    spec.write_text(
        "name tiny\nrows 2\ncols 4\nletters a,b\nhyperedge 1,2\nhyperedge 3,4\n"
    )
    code, out, err = run(capsys, "build", str(spec))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "# tiny"
    assert lines[1] == "ring Q[a1..a4,b1..b4]"
    assert len(lines) == 4


# sha256 of the stdout of ``idealdec build NAME``, recorded before minors
# were built from their Leibniz terms
BUILD_SHA256 = {
    "paper-3x12": "791cceb0e0620e414b0e7628383724570b1cb2ba3ac44b98e547db13a8425e2b",
    "p1-minors": "cdf4fa0c17010afcdd84f58c871188eb11ef6d0ada65576b49c08be3b1d9ed33",
}


@pytest.mark.parametrize("name", sorted(BUILD_SHA256))
def test_build_builtin_golden(capsys, name):
    import hashlib

    code, out, err = run(capsys, "build", name)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BUILD_SHA256[name]


@pytest.mark.parametrize("lines, message", [
    ("cols 3\nletters x,x\nhyperedge 1,2\n", "duplicate variable name 'x1'"),
    ("cols 11\nletters x,x1\nhyperedge 1,2\n", "duplicate variable name 'x11'"),
    ("cols 3\nletters x,y\nhyperedge 1,1\n", "hyperedge (1, 1) repeats a column"),
], ids=["letters-x-x", "letters-x-x1-cols-11", "hyperedge-1-1"])
def test_build_refuses_a_spec_without_distinct_entries(capsys, tmp_path, lines, message):
    spec = tmp_path / "bad.spec"
    spec.write_text("rows 2\n" + lines)
    code, out, err = run(capsys, "build", str(spec))
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"idealdec: error: {spec}: ") and message in err
    assert "Traceback" not in err


def test_build_deduplicates_minors_up_to_sign(capsys, tmp_path):
    spec = tmp_path / "signs.spec"
    spec.write_text("rows 2\ncols 3\nletters x,y\n"
                    "hyperedge 2,1\nhyperedge 1,2\nhyperedge 1,2,3\n")
    code, out, err = run(capsys, "build", str(spec))
    assert code == EXIT_OK
    # the first minor on each column set, with its sign
    assert out.splitlines()[2:] == [
        "-x1*y2 + x2*y1", "x1*y3 - x3*y1", "x2*y3 - x3*y2"]


def test_build_bad_spec_file_is_line_numbered(capsys, tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("name t\nrows two\n")
    code, out, err = run(capsys, "build", str(spec))
    assert code == EXIT_ERROR
    assert "line 2" in err


def test_build_unknown_builtin(capsys):
    code, out, err = run(capsys, "build", "no-such-thing")
    assert code == EXIT_ERROR
    assert err


# -- groebner ----------------------------------------------------------------


def test_groebner_lex_output(capsys, gens_file):
    path = gens_file(CUBIC)
    code, out, err = run(capsys, "groebner", path, "--order", "lex")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "# reduced groebner basis order=lex",
        "ring Q[x,y,z]",
        "y^3 - z^2",
        "x*z - y^2",
        "x*y - z",
        "x^2 - y",
    ]


def test_groebner_deterministic(capsys, gens_file):
    path = gens_file(XYXZ)
    _, out1, _ = run(capsys, "groebner", path, "--order", "degrevlex")
    _, out2, _ = run(capsys, "groebner", path, "--order", "degrevlex")
    assert out1 == out2


def test_groebner_block_order(capsys, gens_file):
    path = gens_file(CUBIC)
    code, out, err = run(capsys, "groebner", path, "--order", "block:x|y,z")
    assert code == EXIT_OK
    assert "order=block:x|y,z" in out.splitlines()[0]


def test_zero_coefficient_terms_are_dropped(capsys, gens_file):
    path = gens_file("ring Q[x,y]\nx*y\n0*x\n")
    code, out, err = run(capsys, "groebner", path)
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[-2:] == ["ring Q[x,y]", "x*y"]
    for command in ("decompose", "primality", "indepsets"):
        code, out, err = run(capsys, command, path)
        assert code == EXIT_OK and err == "", command


def test_groebner_bad_order(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "groebner", path, "--order", "shortlex")
    assert code == EXIT_ERROR
    assert "shortlex" in err


# -- indepsets ----------------------------------------------------------------


def test_indepsets_report(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "indepsets", path, "--score")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == "# command: indepsets"
    assert lines[2].startswith("# input: input.gens sha256=")
    assert "ring Q[x,y,z]" in lines
    assert "dimension 2" in lines
    assert "sets 2" in lines
    assert "u=x d_u=1 lcdeg=1 lcterms=1" in lines
    assert "u=y,z d_u=1 lcdeg=1 lcterms=1" in lines


def test_indepsets_without_score_lists_sets(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "indepsets", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "u=y,z" in lines and "u=x" in lines


def test_indepsets_limit(capsys, gens_file):
    path = gens_file("ring Q[x,y,z]\nx*y*z\n")
    code, out, err = run(capsys, "indepsets", path, "--limit", "1")
    assert code == EXIT_OK
    assert "sets 1" in out.splitlines()


PATH_EDGES = "ring Q[a,b,c,d]\na*b\nb*c\nc*d\n"


def test_indepsets_limit_prints_a_maximal_set(capsys, gens_file):
    # the independent sets are {a,c}, {a,d}, {b,d}; {d} alone is not maximal
    code, out, err = run(capsys, "indepsets", gens_file(PATH_EDGES), "--limit", "1")
    assert code == EXIT_OK
    sets = [line for line in out.splitlines() if line.startswith("u=")]
    assert len(sets) == 1 and sets[0] in ("u=a,c", "u=a,d", "u=b,d")


def test_budget_one_still_finds_an_independent_set(capsys, gens_file):
    path = gens_file(PATH_EDGES)
    code, out, err = run(capsys, "decompose", path, "--budget", "1")
    assert code == EXIT_OK and err == ""
    primes: dict = {}
    for line in out.splitlines():
        words = line.split()
        if words[0] == "component" and words[2] == "prime":
            primes.setdefault(words[1], set()).add(words[3])
    assert sorted(map(sorted, primes.values())) == [["a", "c"], ["b", "c"], ["b", "d"]]
    code, out, err = run(capsys, "primality", path, "--budget", "1")
    assert code == EXIT_OK and err == ""
    assert "verdict NOT_PRIME" in out.splitlines()


# -- decompose ----------------------------------------------------------------


def test_decompose_report(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "decompose", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SCHEMA_LINE
    body = lines[lines.index("ring Q[x,y,z]") :]
    assert body == [
        "ring Q[x,y,z]",
        "components 2",
        "complete yes",
        "component 1 certified=yes certificate=monomial",
        "component 1 primary x",
        "component 1 prime x",
        "component 2 certified=yes certificate=monomial",
        "component 2 primary z",
        "component 2 primary y",
        "component 2 prime z",
        "component 2 prime y",
    ]


# with u = {z} no variable splits these; the fifth linear form, 3*x - 3*y, does
GALOIS_SPLITS = {
    "radical": (
        ["x^2 - 2*z^2", "y^2 - 2*z^2"],
        ["component 1 certified=yes certificate=primitive-element:x;quadratic-discriminant",
         "component 1 u z",
         "component 1 saturation z^2 exp=1",
         "component 1 primary x + y",
         "component 1 primary y^2 - 2*z^2",
         "component 1 prime x + y",
         "component 1 prime y^2 - 2*z^2",
         "component 2 certified=yes certificate=primitive-element:x;quadratic-discriminant",
         "component 2 u z",
         "component 2 primary x - y",
         "component 2 primary y^2 - 2*z^2",
         "component 2 prime x - y",
         "component 2 prime y^2 - 2*z^2"],
    ),
    "non-radical": (
        ["x^4 - 4*x^2*z^2 + 4*z^4", "y^2 - 2*z^2"],
        ["component 1 certified=yes certificate=primitive-element:x;quadratic-discriminant",
         "component 1 u z",
         "component 1 saturation z^4 exp=1",
         "component 1 primary y^2 - 2*z^2",
         "component 1 primary x^2 + 2*x*y + 2*z^2",
         "component 1 prime x + y",
         "component 1 prime y^2 - 2*z^2",
         "component 2 certified=yes certificate=primitive-element:x;quadratic-discriminant",
         "component 2 u z",
         "component 2 primary y^2 - 2*z^2",
         "component 2 primary x^2 - 2*x*y + 2*z^2",
         "component 2 prime x - y",
         "component 2 prime y^2 - 2*z^2"],
    ),
}


@pytest.mark.parametrize("case", sorted(GALOIS_SPLITS))
def test_decompose_splits_along_a_linear_form(capsys, gens_file, case):
    gens, components = GALOIS_SPLITS[case]
    path = gens_file("ring Q[x,y,z]\n" + "".join(g + "\n" for g in gens))
    code, out, err = run(capsys, "decompose", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[lines.index("ring Q[x,y,z]"):] == [
        "ring Q[x,y,z]", "components 2", "complete yes"] + components


def test_decompose_zero_ideal(capsys, gens_file):
    path = gens_file("ring Q[x,y]\n")
    code, out, err = run(capsys, "decompose", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[lines.index("ring Q[x,y]") :] == [
        "ring Q[x,y]",
        "components 1",
        "complete yes",
        "component 1 certified=yes certificate=zero-ideal",
    ]


# whole decompose reports, byte for byte: the components of the edge ideal
# of the 6-cycle and of a monomial, both monomial ideals and so read from
# their polarization, and the saturation exponents and components of the
# binomial edge ideal of the path on four vertices
DECOMPOSE_GOLDENS = {
    "c6": (
        "ring Q[x1,x2,x3,x4,x5,x6]\nx1*x2\nx2*x3\nx3*x4\nx4*x5\nx5*x6\nx6*x1\n",
        """\
idealdec report v1
# command: decompose
# input: c6.gens sha256=2fefcf3cc647850dd1d9003898499cc940feb6ee58a5eede79eb9ab3dea02363
# seed: 0
# budget: none
ring Q[x1..x6]
components 5
complete yes
component 1 certified=yes certificate=monomial
component 1 primary x5
component 1 primary x3
component 1 primary x1
component 1 prime x5
component 1 prime x3
component 1 prime x1
component 2 certified=yes certificate=monomial
component 2 primary x6
component 2 primary x4
component 2 primary x2
component 2 prime x6
component 2 prime x4
component 2 prime x2
component 3 certified=yes certificate=monomial
component 3 primary x5
component 3 primary x4
component 3 primary x2
component 3 primary x1
component 3 prime x5
component 3 prime x4
component 3 prime x2
component 3 prime x1
component 4 certified=yes certificate=monomial
component 4 primary x6
component 4 primary x4
component 4 primary x3
component 4 primary x1
component 4 prime x6
component 4 prime x4
component 4 prime x3
component 4 prime x1
component 5 certified=yes certificate=monomial
component 5 primary x6
component 5 primary x5
component 5 primary x3
component 5 primary x2
component 5 prime x6
component 5 prime x5
component 5 prime x3
component 5 prime x2
""",
    ),
    "p4": (
        "ring Q[x1,x2,x3,x4,y1,y2,y3,y4]\nx1*y2 - x2*y1\nx2*y3 - x3*y2\nx3*y4 - x4*y3\n",
        """\
idealdec report v1
# command: decompose
# input: p4.gens sha256=684b123dd4e5f6f7cd20e70d3ef24b7a7d24cf0ca36f840ca114f98554017ee6
# seed: 0
# budget: none
ring Q[x1..x4,y1..y4]
components 3
complete yes
component 1 certified=yes certificate=dimension-1
component 1 u x1,x3,y1,y3,y4
component 1 saturation y3 exp=1
component 1 saturation x1*y3 - x3*y1 exp=1
component 1 primary y2
component 1 primary x2
component 1 primary -x3*y4 + x4*y3
component 1 prime y2
component 1 prime x2
component 1 prime -x3*y4 + x4*y3
component 2 certified=yes certificate=dimension-1
component 2 u x1,x2,x4,y2,y4
component 2 saturation x2 exp=3
component 2 saturation y4 exp=1
component 2 saturation x2*y4 - x4*y2 exp=0
component 2 primary y3
component 2 primary x3
component 2 primary -x1*y2 + x2*y1
component 2 prime y3
component 2 prime x3
component 2 prime -x1*y2 + x2*y1
component 3 certified=yes certificate=dimension-1
component 3 u x1,x2,x3,x4,y4
component 3 saturation x4 exp=0
component 3 saturation x3 exp=1
component 3 saturation x2 exp=1
component 3 primary -x3*y4 + x4*y3
component 3 primary -x2*y4 + x4*y2
component 3 primary -x2*y3 + x3*y2
component 3 primary -x1*y4 + x4*y1
component 3 primary -x1*y3 + x3*y1
component 3 primary -x1*y2 + x2*y1
component 3 prime -x3*y4 + x4*y3
component 3 prime -x2*y4 + x4*y2
component 3 prime -x2*y3 + x3*y2
component 3 prime -x1*y4 + x4*y1
component 3 prime -x1*y3 + x3*y1
component 3 prime -x1*y2 + x2*y1
""",
    ),
    "mono": (
        "ring Q[x,y]\nx^2*y^3\n",
        """\
idealdec report v1
# command: decompose
# input: mono.gens sha256=25ae718df5272e14df1dbbd46af9f0a1c3db87baae58f288b0c6511a4bbdba4e
# seed: 0
# budget: none
ring Q[x,y]
components 2
complete yes
component 1 certified=yes certificate=monomial
component 1 primary x^2
component 1 prime x
component 2 certified=yes certificate=monomial
component 2 primary y^3
component 2 prime y
""",
    ),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GOLDENS))
def test_decompose_report_goldens(capsys, gens_file, name):
    text, report = DECOMPOSE_GOLDENS[name]
    code, out, err = run(capsys, "decompose", gens_file(text, name=f"{name}.gens"))
    assert code == EXIT_OK and err == ""
    assert out == report


def test_decompose_and_primality_refuse_prime_fields(capsys, gens_file):
    path = gens_file("ring GF(7)[x,y]\nx^2 - 2*y^2\n")
    for command in ("decompose", "primality"):
        code, out, err = run(capsys, command, path)
        assert code == EXIT_ERROR
        assert "over Q only, not over GF(7)" in err
    code, out, err = run(capsys, "groebner", path)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "x^2 + 5*y^2"


@pytest.mark.parametrize("modulus, message", [
    # 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    (318665857834031151167461, "is not prime"),
    # the least strong pseudoprime to bases 2..41: undecidable, so refused
    (3317044064679887385961981, "cannot decide"),
])
def test_huge_composite_moduli_are_refused(capsys, gens_file, modulus, message):
    path = gens_file(f"ring GF({modulus})[x,y]\nx^2 - y\nx*y - 1\n")
    code, out, err = run(capsys, "groebner", path)
    assert code == EXIT_ERROR
    assert out == ""
    assert "bad ring header" in err and message in err


def test_decompose_incomplete_exit_code(capsys, gens_file, monkeypatch):
    """A depth or budget overrun is an unfinished decomposition (exit 2),
    not an input error (exit 1)."""
    import idealdec.decompose as decompose_mod
    from idealdec.decompose import DecompositionIncomplete

    def overrun(I, **kwargs):
        raise DecompositionIncomplete("decomposition recursion depth exceeded")

    monkeypatch.setattr(decompose_mod, "gtz_decompose", overrun)
    code, out, err = run(capsys, "decompose", gens_file(XYXZ))
    assert code == EXIT_UNKNOWN
    assert "recursion depth exceeded" in err


def test_decompose_depth_guard_in_the_remainder_loop(capsys, gens_file, monkeypatch):
    """The real loop, not a stub: the binomial edge ideal of the path on
    three vertices needs a remainder past the first, so with no depth to
    spare it is unfinished.  (A monomial ideal never reaches the loop.)"""
    import idealdec.decompose as decompose_mod

    monkeypatch.setattr(decompose_mod, "_MAX_DEPTH", 0)
    path = "ring Q[x1,x2,x3,y1,y2,y3]\nx1*y2 - x2*y1\nx2*y3 - x3*y2\n"
    code, out, err = run(capsys, "decompose", gens_file(path))
    assert code == EXIT_UNKNOWN
    assert out == ""
    assert "decomposition recursion depth exceeded" in err


def test_decompose_the_twelve_cycle(capsys, gens_file):
    """The edge ideal of the 12-cycle: GTZ ran out of depth on it; its
    polarization, itself, gives its 29 minimal vertex covers."""
    names = [f"x{i}" for i in range(1, 13)]
    text = f"ring Q[{','.join(names)}]\n" + "".join(
        f"{a}*{b}\n" for a, b in zip(names, names[1:] + names[:1]))
    code, out, err = run(capsys, "decompose", gens_file(text))
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert "components 29" in lines and "complete yes" in lines


# -- primality ----------------------------------------------------------------


def test_primality_not_prime_report(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "primality", path)
    assert code == EXIT_OK  # NOT_PRIME is still a certified verdict
    lines = out.splitlines()
    tail = lines[lines.index("ring Q[x,y,z]") :]
    assert tail == [
        "ring Q[x,y,z]",
        "verdict NOT_PRIME",
        "detail u=y,z",
        "detail localized-maximality=MAXIMAL",
        "detail certificate=dimension-1",
        "detail c=z orbit_size=1 stable=no",
        "witness z",
    ]


def test_primality_prime_report(capsys, gens_file):
    path = gens_file(CUBIC)
    code, out, err = run(capsys, "primality", path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "verdict PRIME" in lines
    assert "detail certificate=primitive-element:x;eisenstein:z" in lines
    assert not any(line.startswith("witness") for line in lines)


def test_primality_unknown_exit_code(capsys, gens_file, monkeypatch):
    import idealdec.decompose as decompose_mod
    from idealdec.decompose import PrimalityVerdict, UNKNOWN

    def fake_check(I, **kwargs):
        return PrimalityVerdict(
            status=UNKNOWN, witness=None, u_names=(), details=("budget",)
        )

    monkeypatch.setattr(decompose_mod, "primality_check", fake_check)
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "primality", path)
    assert code == EXIT_UNKNOWN
    assert "verdict UNKNOWN" in out.splitlines()


def test_primality_with_symmetry_file(capsys, gens_file, tmp_path):
    path = gens_file(XYXZ)
    sym = tmp_path / "sym.txt"
    sym.write_text("# swap the two tail variables\n(y z)\n")
    code, out, err = run(capsys, "primality", path, "--symmetry-file", str(sym))
    assert code == EXIT_OK
    assert "# symmetries: 1" in out
    assert "verdict NOT_PRIME" in out


def test_primality_bad_symmetry_file(capsys, gens_file, tmp_path):
    path = gens_file(XYXZ)
    sym = tmp_path / "sym.txt"
    sym.write_text("(y q)\n")
    code, out, err = run(capsys, "primality", path, "--symmetry-file", str(sym))
    assert code == EXIT_ERROR
    assert "line 1" in err


# -- verify ---------------------------------------------------------------


def test_verify_passes_conforming_data(capsys, tmp_path):
    from idealdec.files import write_generators

    from conftest import build_synthetic_p2_like

    gens = build_synthetic_p2_like()
    path = tmp_path / "p2.gens"
    write_generators(path, gens[0].ring, gens)
    code, out, err = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert any(line.startswith("pass count-44") for line in lines)
    assert lines[-1] == "summary pass"


def test_verify_fails_truncated_data(capsys, tmp_path):
    from idealdec.files import write_generators

    from conftest import build_synthetic_p2_like

    gens = build_synthetic_p2_like()
    path = tmp_path / "short.gens"
    write_generators(path, gens[0].ring, gens[:40])
    code, out, err = run(capsys, "verify", str(path))
    assert code == EXIT_ERROR
    assert "FAIL count-44" in out
    assert out.splitlines()[-1] == "summary FAIL"


def test_verify_against_rejects_unknown_target(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "verify", path, "--against", "mystery")
    assert code == EXIT_ERROR


def test_verify_rejects_wrong_ring(capsys, gens_file):
    path = gens_file(XYXZ)
    code, out, err = run(capsys, "verify", path)
    assert code == EXIT_ERROR
    assert err


# -- shared plumbing ----------------------------------------------------------


def test_seed_env_default_and_flag_override(capsys, gens_file, monkeypatch):
    path = gens_file(XYXZ)
    monkeypatch.setenv("IDEALDEC_SEED", "41")
    code, out, err = run(capsys, "decompose", path)
    assert "# seed: 41" in out.splitlines()
    code, out, err = run(capsys, "decompose", path, "--seed", "5")
    assert "# seed: 5" in out.splitlines()


def test_bad_seed_env(capsys, gens_file, monkeypatch):
    path = gens_file(XYXZ)
    monkeypatch.setenv("IDEALDEC_SEED", "not-a-number")
    code, out, err = run(capsys, "decompose", path)
    assert code == EXIT_ERROR


def test_missing_input_file(capsys):
    code, out, err = run(capsys, "decompose", "/nonexistent/p.gens")
    assert code == EXIT_ERROR
    assert err


def test_unreadable_files_are_reported(capsys, gens_file, tmp_path):
    # every file the CLI reads turns an OSError into one error line
    missing = str(tmp_path / "missing.txt")
    for argv in (["verify", missing],
                 ["primality", gens_file(XYXZ), "--symmetry-file", missing],
                 ["build", str(tmp_path)]):  # a directory exists but cannot be read
        code, out, err = run(capsys, *argv)
        assert code == EXIT_ERROR
        assert err.startswith("idealdec: error: cannot read "), argv


def _bytes_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("command", ["groebner", "decompose"])
def test_non_utf8_generator_file_is_a_line_numbered_error(capsys, tmp_path, command):
    path = _bytes_file(tmp_path, "bad.gens", b"ring Q[x,y]\nx*y\xff\n")
    code, out, err = run(capsys, command, path)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"idealdec: error: {path}: line 2: not UTF-8")
    assert "Traceback" not in err


def test_non_utf8_symmetry_file_is_a_line_numbered_error(capsys, gens_file, tmp_path):
    sym = _bytes_file(tmp_path, "sym.txt", b"# swap\r\n(y z)\r\n(x\xfe y)\n")
    code, out, err = run(capsys, "primality", gens_file(XYXZ), "--symmetry-file", sym)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"idealdec: error: {sym}: line 3: not UTF-8")


def test_non_utf8_spec_file_is_a_line_numbered_error(capsys, tmp_path):
    spec = _bytes_file(tmp_path, "bad.spec", b"name t\xc3\nrows 2\n")
    code, out, err = run(capsys, "build", spec)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith(f"idealdec: error: {spec}: line 1: not UTF-8")


@pytest.mark.parametrize("timeout", [[], ["--timeout", "1e-9"]])
def test_unwritable_out_is_reported(capsys, gens_file, tmp_path, timeout):
    # a missing directory, and a directory; with a timeout the partial log
    # is written the same way
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run(capsys, "decompose", gens_file(XYXZ),
                             "--out", str(target), *timeout)
        assert code == EXIT_ERROR and out == ""
        assert err.startswith(f"idealdec: error: cannot write {target}: ")
        assert "Traceback" not in err


def test_unwritable_out_is_refused_before_any_work(capsys, gens_file, tmp_path,
                                                  monkeypatch):
    def must_not_run(args, sink):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._DISPATCH, "decompose", must_not_run)
    missing = tmp_path / "missing" / "out.txt"
    for target, reason in ((missing, "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "decompose", gens_file(XYXZ),
                             "--out", str(target), "--timeout", "60")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"idealdec: error: cannot write {target}: {reason}\n"
    assert not missing.parent.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.gens"]


def test_headerless_input_file(capsys, gens_file):
    path = gens_file("# only a comment\n")
    code, out, err = run(capsys, "groebner", path)
    assert code == EXIT_ERROR
    assert "no ring header" in err


def test_usage_errors_exit_one(capsys):
    code, out, err = run(capsys, "decompose")  # missing positional
    assert code == EXIT_ERROR
    code, out, err = run(capsys, "no-such-command")
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--budget", "0"),
        ("indepsets", "--limit", "0"),
        ("indepsets", "--limit", "-3"),
    ],
    ids=["decompose-budget-0", "indepsets-limit-0", "indepsets-limit-minus-3"],
)
def test_nonpositive_budget_rejected(capsys, gens_file, argv):
    path = gens_file(XYXZ)
    command, *flags = argv
    code, out, err = run(capsys, command, path, *flags)
    assert code == EXIT_ERROR
    assert "must be a positive integer" in err
    assert out == ""


def test_timeout_gives_partial_log_and_code_three(capsys, tmp_path):
    # a Groebner computation that cannot finish in five milliseconds
    import random

    rng = random.Random(3)
    names = tuple("abcdefg")
    lines = ["ring Q[a,b,c,d,e,f,g]"]
    for _ in range(6):
        terms = []
        for _ in range(5):
            mono = "*".join(
                f"{rng.choice(names)}^{rng.randint(1, 4)}" for _ in range(4)
            )
            terms.append(f"{rng.randint(1, 9)}*{mono}")
        lines.append(" + ".join(terms))
    path = tmp_path / "hard.gens"
    path.write_text("\n".join(lines) + "\n")
    code = main(["decompose", str(path), "--timeout", "0.005"])
    out = capsys.readouterr().out
    assert code == EXIT_TIMEOUT
    assert out.splitlines()[0] == SCHEMA_LINE
    assert "timeout after 0.005s" in out.splitlines()[-1]


@pytest.mark.parametrize("value", ["nan", "inf", "1e12"])
def test_timeout_out_of_range_is_a_clean_error(capsys, gens_file, value):
    """A timeout the system timer cannot hold exits 1 with a message, not a
    traceback, and leaves no SIGALRM handler or timer behind."""
    handler = signal.getsignal(signal.SIGALRM)
    code, out, err = run(capsys, "decompose", gens_file(XYXZ), "--timeout", value)
    assert code == EXIT_ERROR
    assert err.startswith("idealdec") and "--timeout" in err
    assert "Traceback" not in err
    assert out == ""
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timeout_expiring_at_once_exits_three(capsys, gens_file):
    """A timer armed for a nanosecond expires before the command starts; the
    run still ends in exit 3 with its timeout line, and the previous SIGALRM
    handler is restored."""
    handler = signal.getsignal(signal.SIGALRM)
    code, out, _ = run(capsys, "decompose", gens_file(XYXZ), "--timeout", "1e-9")
    assert code == EXIT_TIMEOUT
    assert out.splitlines()[-1] == "timeout after 1e-09s"
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_repeated_main_calls_leak_no_option(capsys, gens_file, monkeypatch):
    """main reuses one parser per process: a run with --budget, --seed or
    --timeout leaves nothing behind for the next run, whose report equals
    the one made with a freshly built parser."""
    monkeypatch.delenv("IDEALDEC_SEED", raising=False)
    path = gens_file(PATH_EDGES)
    runs = [
        ("decompose", path, "--budget", "1", "--seed", "3"),
        ("decompose", path),
        ("primality", path, "--timeout", "60"),
        ("primality", path),
    ]

    def reports(fresh):
        out = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            out.append(run(capsys, *argv)[:2])
        return out

    expected = reports(fresh=True)
    assert reports(fresh=False) == expected
    assert build_parser() is build_parser()
    assert [code for code, _ in expected] == [EXIT_OK] * 4
    assert "# budget: 1" in expected[0][1] and "# seed: 3" in expected[0][1]
    assert "# budget: none" in expected[1][1] and "# seed: 0" in expected[1][1]
    assert expected[2] == expected[3]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_out_flag_writes_report_file(capsys, gens_file, tmp_path):
    path = gens_file(XYXZ)
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "primality", path, "--out", str(target))
    assert code == EXIT_OK
    assert "verdict NOT_PRIME" in target.read_text()


def test_runs_without_optional_packages(tmp_path):
    """The package needs nothing beyond the standard library: with sympy,
    numpy and hypothesis made unimportable before idealdec is imported,
    groebner, decompose and primality all succeed."""
    import os
    import subprocess
    import sys

    path = tmp_path / "cubic.gens"
    path.write_text(CUBIC)
    script = (
        "import sys\n"
        "for name in ('sympy', 'numpy', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "from idealdec.cli import main\n"
        "codes = [main([command, sys.argv[1], '--out', sys.argv[2] + command])\n"
        "         for command in ('groebner', 'decompose', 'primality')]\n"
        "print(codes)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "report-")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0]", done.stderr
    assert "verdict PRIME" in (tmp_path / "report-primality").read_text()


def test_a_command_runs_only_the_modules_it_uses(tmp_path):
    """In a fresh interpreter ``import idealdec`` runs no submodule, a
    groebner run none of the decomposition stack, no gcd code and no
    Hilbert numerator, a decompose run not the hyperedge constructors, and
    a build from a spec neither the Groebner engine, the Hilbert
    numerators, the symmetry code, the gcd code, the verifier nor the
    decomposition stack.  A registered submodule whose body has not run is
    still in sys.modules, as a LazyLoader subclass of ModuleType."""
    import ast
    import os
    import subprocess
    import sys

    path = tmp_path / "cubic.gens"
    path.write_text(CUBIC)
    spec = tmp_path / "tiny.spec"
    spec.write_text("rows 2\ncols 3\nletters x,y\nhyperedge 1,2,3\n")
    script = (
        "import sys, types\n"
        "def ran():\n"
        "    return sorted(n for n, m in sys.modules.items()\n"
        "                  if n.startswith('idealdec.') and type(m) is types.ModuleType)\n"
        "import idealdec\n"
        "print(ran())\n"
        "from idealdec.cli import main\n"
        "for command, source in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    assert main([command, source, '--out', sys.argv[1] + command]) == 0\n"
        "    print(ran())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def modules_run(*commands):
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "report-"), *commands],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return [set(ast.literal_eval(line)) for line in done.stdout.splitlines()]

    after_import, after_groebner, after_decompose = modules_run(
        "groebner", str(path), "decompose", str(path))
    assert after_import == set()
    assert "idealdec.groebner" in after_groebner
    unused = {f"idealdec.{m}" for m in
              ("decompose", "factorize", "hilbert", "hyperedge", "indepsets",
               "polygcd", "symmetry", "verify")}
    assert unused.isdisjoint(after_groebner)
    assert "idealdec.decompose" in after_decompose
    assert "idealdec.hyperedge" not in after_decompose

    _, after_build = modules_run("build", str(spec))
    assert "idealdec.hyperedge" in after_build
    unused = {f"idealdec.{m}" for m in
              ("decompose", "factorize", "groebner", "hilbert", "indepsets",
               "polygcd", "symmetry", "verify")}
    assert unused.isdisjoint(after_build)


def test_decompose_reads_its_input_once(capsys, gens_file, monkeypatch):
    """The digest on the ``# input:`` line is of the bytes that were parsed:
    the input file is opened once."""
    import builtins
    import hashlib

    path = gens_file(XYXZ)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, err = run(capsys, "decompose", path)
    monkeypatch.undo()
    assert code == EXIT_OK
    assert opened.count(path) == 1
    digest = hashlib.sha256(XYXZ.encode("utf-8")).hexdigest()
    assert f"# input: input.gens sha256={digest}" in out.splitlines()


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "idealdec", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "decompose" in done.stdout

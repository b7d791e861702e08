"""The command-line front end mirrors the library and keeps its exit-code contract."""

import json
import re
import subprocess
import sys

import pytest

from quasinv import serialize_map, named_map, DescribedNatMap
from quasinv.cli import BLOCK_POINTS, main
from quasinv.orbits import orbit, orbit_profile


@pytest.fixture
def map_file(tmp_path):
    def write(sm, name="map.json"):
        path = tmp_path / name
        path.write_text(serialize_map(sm))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_finite(capsys, map_file):
    path = map_file(DescribedNatMap((0,), 1, (0,)))
    code, out, _ = run(capsys, "orbit", path, "0")
    assert code == 0 and "finite" in out


def test_orbit_infinite_named_map(capsys):
    code, out, _ = run(capsys, "orbit", "succ", "0")
    assert code == 0
    assert "infinite" in out and "drift=1" in out


def test_qi_interval_holds(capsys):
    code, out, _ = run(capsys, "qi", "succ", "--interval", "3", "7", "--k", "1", "--internal")
    assert code == 0
    assert out.strip() == "holds P={7}"


def test_qi_set_fails(capsys):
    code, out, _ = run(capsys, "qi", "succ", "--set", "0,2", "--k", "1", "--internal")
    assert code == 1 and out.strip() == "fails"


def test_qi_external(capsys):
    code, out, _ = run(capsys, "qi", "succ", "--set", "0,1,2", "--k", "1", "--external")
    assert code == 0 and "excess={3}" in out


def test_classify_subsets(capsys, map_file):
    path = map_file(DescribedNatMap((2, 1, 0), 1, (0,)))
    code, out, _ = run(capsys, "classify", path, "--subsets")
    assert code == 0 and out.startswith("case 1")
    code, out, _ = run(capsys, "classify", "succ", "--subsets")
    assert code == 1 and out.strip() == "absent"


def test_classify_intervals_and_strict(capsys, map_file):
    code, out, _ = run(capsys, "classify", "succ", "--intervals")
    assert code == 0 and out.startswith("case 1")
    code, out, _ = run(capsys, "classify", "succ", "--strict")
    assert code == 0 and out.strip() == "succ"
    path = map_file(DescribedNatMap((1, 2, 5), 1, (-1,)))
    code, out, _ = run(capsys, "classify", path, "--strict")
    assert code == 0 and out.strip() == "pivot n_star=2 u=5"


def test_superset(capsys, map_file):
    path = map_file(DescribedNatMap((1, 2, 0), 1, (0,)))
    code, out, _ = run(capsys, "superset", path, "--istar", "0")
    assert code == 0 and out.strip() == "G={0,1,2}"
    code, out, _ = run(capsys, "superset", "succ", "--istar", "0")
    assert code == 1 and "infinite orbit at 0" in out


def test_solve(capsys, map_file):
    code, out, _ = run(capsys, "solve", "succ", "--p2")
    assert code == 0 and out.startswith("present")
    path = map_file(DescribedNatMap((), 1, (2,)))
    code, out, _ = run(capsys, "solve", path, "--p1")
    assert code == 1 and out.strip() == "absent"


def test_verify_selected(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--samples", "10",
        "--theorem", "enumeration-complete", "--theorem", "strict-classifier-families",
    )
    assert code == 0
    assert "ok   enumeration-complete" in out
    assert out.strip().endswith("passed: 0 failures")


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--samples", "5", "--theorem", "enumeration-complete", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_verify_reports_check_seconds(capsys):
    argv = ("verify", "--n", "2", "--samples", "5", "--theorem", "enumeration-complete")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    line = next(l for l in out.splitlines() if "enumeration-complete" in l)
    assert float(line.split("seconds=")[1]) >= 0
    code, out, _ = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert report["checks"][0]["seconds"] > 0
    assert report["config"]["generator"]["max_modulus"] == 3


def test_export_dot(capsys, map_file):
    code, out, _ = run(capsys, "export-dot", "succ", "--window", "5")
    assert code == 0
    assert out.startswith("digraph")
    assert '4 -> 5 [label="+1"];' in out
    assert "5 -> 6" not in out  # truncated at the window
    path = map_file(DescribedNatMap((3,), 1, (1,)))
    code, out, _ = run(capsys, "export-dot", path, "--window", "5")
    assert "0 -> 3;" in out  # prefix edges carry no shift label


def test_export_dot_finite(capsys, map_file):
    from quasinv import FiniteTable

    path = map_file(FiniteTable((1, 0)))
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0 and "0 -> 1;" in out and "1 -> 0;" in out


def test_bad_input_exits_2(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    code, _, err = run(capsys, "orbit", str(bad), "0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "orbit", str(tmp_path / "missing.json"), "0")
    assert code == 2
    code, _, err = run(capsys, "qi", "succ", "--set", "zzz", "--k", "1", "--internal")
    assert code == 2
    # a negative window is malformed, not an empty graph or listing
    for argv in (
        ("export-dot", "succ", "--window", "-5"),
        ("orbit", "succ", "3", "--window", "-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err
    monkeypatch.setenv("QUASINV_WINDOW", "-2")
    code, out, err = run(capsys, "orbit", "succ", "3")
    assert code == 2 and "error:" in err


def test_window_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QUASINV_WINDOW", "3")
    code, out, _ = run(capsys, "export-dot", "succ")
    assert code == 0 and "2 -> 3" in out and "3 -> 4" not in out


def test_cli_matches_library_verdicts(capsys, map_file):
    from quasinv import internal_quasi_invariant, solve_P1

    sm = DescribedNatMap((2,), 1, (1,))
    path = map_file(sm)
    rep = internal_quasi_invariant(sm, (0, 1, 2), 1)
    code, out, _ = run(capsys, "qi", path, "--set", "0,1,2", "--k", "1", "--internal")
    assert (code == 0) == rep.holds
    code, _, _ = run(capsys, "solve", path, "--p1")
    assert (code == 0) == (solve_P1(sm) is not None)


STEP_DOWN = DescribedNatMap((0,), 1, (-1,))  # every point steps down to 0


def test_orbit_of_a_long_descent_exits_0(capsys, map_file):
    code, out, err = run(capsys, "orbit", map_file(STEP_DOWN), "1000000")
    assert code == 0 and err == ""
    assert out.startswith("finite tail=[1000000, 999999,") and out.rstrip().endswith("cycle=[0]")


def test_finite_orbit_prints_whole_across_blocks(capsys, map_file):
    # the tail is written BLOCK_POINTS points at a time: two full blocks and five points
    x = 2 * BLOCK_POINTS + 5
    res = orbit(STEP_DOWN, x)
    code, out, err = run(capsys, "orbit", map_file(STEP_DOWN), str(x))
    assert code == 0 and err == ""
    assert out == f"finite tail={list(res.tail)} cycle={list(res.cycle)}\n"


def test_orbit_too_long_to_list_exits_2(capsys, map_file):
    code, out, err = run(capsys, "orbit", map_file(STEP_DOWN), str(10**18))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("exc", [MemoryError("out of memory"), RuntimeError("boom")])
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    """An exception outside the typed errors is an internal error, never a
    failed property: one line and exit 3."""
    import quasinv.psolve

    def crash(sm):
        raise exc

    monkeypatch.setattr(quasinv.psolve, "solve_P2", crash)
    code, out, err = run(capsys, "solve", "succ", "--p2")
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_orbit_too_long_to_list_prints_no_traceback(map_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "quasinv.cli", "orbit", map_file(STEP_DOWN), str(10**18)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _calls(capsys, monkeypatch, steps):
    """Run each (env, argv) step through main; return (code, stdout, stderr) per step."""
    results = []
    for env, argv in steps:
        if env is None:
            monkeypatch.delenv("QUASINV_WINDOW", raising=False)
        else:
            monkeypatch.setenv("QUASINV_WINDOW", env)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        results.append((code, re.sub(r"seconds=\S+", "", out.out), out.err))
    return results


def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    from quasinv import cli

    verify = ("verify", "--n", "2", "--samples", "5", "--theorem", "enumeration-complete")
    steps = [
        (None, ("orbit", "succ", "3")),
        (None, ("orbit", "succ", "3", "--window", "7")),
        ("4", ("orbit", "succ", "2")),
        (None, ("orbit", "succ", "2")),
        (None, ("qi", "succ", "--set", "0,1,2", "--k", "1", "--external")),
        (None, ("qi", "succ", "--interval", "3", "7", "--k", "0", "--internal")),
        (None, ("solve", "succ", "--p1")),
        (None, ("solve", "succ", "--p2")),
        (None, verify),
        (None, verify),
        (None, ("qi", "succ", "--set", "0", "--interval", "0", "1", "--k", "1", "--internal")),
        (None, ("orbit", "succ", "3", "--window", "2")),
    ]
    reused = _calls(capsys, monkeypatch, steps)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _calls(capsys, monkeypatch, steps)
    assert reused == fresh
    assert reused[2][1].endswith("omitted within [0,4]: [0, 1]\n")
    assert reused[3][1].endswith(f"omitted within [0,{cli.DEFAULT_WINDOW}]: [0, 1]\n")
    # --theorem appends: the second verify still runs one check
    assert reused[9][1].count("enumeration-complete") == 1
    assert reused[10][0] == 2 and reused[11][0] == 0


# Each script runs in a fresh interpreter, so that modules imported by other
# tests cannot hide a submodule loaded too early.
_LAZY_IMPORTS = {
    "import-loads-no-submodule": """
import sys, quasinv
loaded = sorted(m for m in sys.modules if m.startswith("quasinv."))
assert not loaded, loaded
""",
    "orbit-loads-neither-oracle-nor-classify": """
import contextlib, io, sys
from quasinv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["orbit", "succ", "3"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("quasinv."))
assert "quasinv.oracle" not in loaded and "quasinv.classify" not in loaded, loaded
""",
    "verify-loads-oracle": """
import contextlib, io, sys
from quasinv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--theorem", "orbit-dichotomy-finite", "--n", "2"]) == 0
assert "quasinv.oracle" in sys.modules
""",
    "exports-are-their-submodules-objects": """
import importlib, quasinv
assert quasinv.orbit is quasinv.orbits.orbit
for name in quasinv.__all__:
    module = importlib.import_module("quasinv." + quasinv._MODULE_OF[name])
    assert getattr(quasinv, name) is getattr(module, name), name
star = {}
exec("from quasinv import *", star)
assert set(star) - {"__builtins__"} == set(quasinv.__all__)
""",
    "dir-lists-exports-and-unknown-names-raise": """
import quasinv
assert set(quasinv.__all__) <= set(dir(quasinv))
try:
    quasinv.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("quasinv.no_such_name resolved")
""",
}


@pytest.mark.parametrize("script", _LAZY_IMPORTS.values(), ids=_LAZY_IMPORTS)
def test_submodules_load_on_first_use(script):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_window_outputs_across_blocks(capsys, map_file):
    sm = DescribedNatMap((7, 0, 9), 3, (3, -1, 2))  # every orbit climbs by 3 in class 0
    path, w = map_file(sm), 2 * BLOCK_POINTS + 5
    # the orbit of succ from beyond a block is cofinite, its listing cut at the start
    for source, m, x in ((path, sm, 0), (path, sm, 1), (path, sm, 5),
                         ("succ", named_map("succ"), BLOCK_POINTS + 7)):
        want = sorted(set(range(w + 1)) - orbit_profile(m, x).points_upto(w))
        code, out, _ = run(capsys, "orbit", source, str(x), "--window", str(w))
        assert code == 0 and out.splitlines()[-1] == f"omitted within [0,{w}]: {want}"
    edges = [f"  {x} -> {sm(x)};" for x in range(3) if sm(x) <= w] + [
        f'  {x} -> {sm(x)} [label="{sm.shifts[x % 3]:+d}"];'
        for x in range(3, w + 1)
        if sm(x) <= w
    ]
    code, out, _ = run(capsys, "export-dot", path, "--window", str(w))
    assert code == 0 and out.splitlines()[2:-1] == edges and out.endswith("}\n")


# Runs main() under a 1 GB address-space limit set in the child only, then
# reports the child's peak resident set in kB on stderr.  The peak is VmHWM,
# not ru_maxrss: on Linux ru_maxrss keeps the spawning process's peak across
# exec, so it would report the test runner's.
_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from quasinv.cli import main
try:
    code = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print(f"peak_kb={peak}", file=sys.stderr)
sys.exit(code)
"""


def _limited_main(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    peak = re.search(r"^peak_kb=(\d+)$", proc.stderr, re.M)
    return proc.returncode, proc.stderr, peak and int(peak[1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_every_subcommand_runs_in_bounded_memory(map_file):
    from concurrent.futures import ThreadPoolExecutor

    big, window = str(10**18), str(2 * 10**7)
    step_down = map_file(STEP_DOWN)
    # one orbit descends from 10^18, so the decider's window reaches 2 * 10^18
    huge_prefix = map_file(DescribedNatMap((0, 10**18), 1, (-1,)), "huge_prefix.json")
    argvs = [
        ("orbit", "succ", "3", "--window", window),
        ("orbit", "succ", big, "--window", window),
        ("orbit", "succ", "3", "--window", big),
        ("orbit", step_down, big),
        ("qi", "succ", "--interval", "0", big, "--k", "1", "--external"),
        ("qi", "succ", "--interval", big, big + "0", "--k", "1", "--internal"),
        ("qi", step_down, "--interval", "0", big, "--k", "3", "--internal"),
        ("qi", "succ", "--set", f"0,{big}", "--k", "1", "--external"),
        ("classify", step_down, "--intervals"),
        ("classify", step_down, "--subsets"),
        ("superset", step_down, "--istar", big),
        ("superset", "succ", "--istar", big),
        ("solve", step_down, "--p1"),
        ("solve", "succ", "--p2"),
        ("solve", huge_prefix, "--p2"),
        ("export-dot", "succ", "--window", window),
    ]
    with ThreadPoolExecutor(3) as pool:
        results = list(pool.map(lambda argv: _limited_main(*argv), argvs))
    for argv, (code, err, _) in zip(argvs, results):
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    exits = {argv: code for argv, (code, _, _) in zip(argvs, results)}
    assert exits[("orbit", "succ", "3", "--window", window)] == 0
    assert exits[("orbit", "succ", "3", "--window", big)] == 0
    assert exits[("qi", "succ", "--interval", "0", big, "--k", "1", "--external")] == 0
    # P2 holds; the samples G({0, 1}) and G({2, 5}) are too long to list, and
    # each prints as one line without changing the verdict
    assert exits[("solve", huge_prefix, "--p2")] == 0


# Lists the orbit of a start under a descending map, checks its length,
# cycle and last tail point, then prints the process's peak resident set in kB.
_LIBRARY_ORBIT = """
from quasinv import DescribedNatMap, orbit
res = orbit(DescribedNatMap{map}, {start})
assert (len(res.tail), res.cycle, res.tail[-1]) == {expected}, res
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc")
def test_finite_orbit_at_the_listing_limit_stays_small():
    # orbit() lists no point of either orbit, so it comes nowhere near the
    # listing's 0.41 GB; the CLI at these starts is held to 128 MB of address
    # space by the CI step "Finite orbit at the listing limit"
    cases = [
        # step down by one: 10^7 points, the most orbit() lists
        (((0,), 1, (-1,)), 10**7 - 1, (10**7 - 1, (0,), 1)),
        # odd points step down by three, even ones by one: one two-phase run
        (((0, 0, 1, 2, 3), 2, (-1, -3)), 9999999, (5000001, (0,), 1)),
    ]
    for sm, start, expected in cases:
        script = _LIBRARY_ORBIT.format(map=sm, start=start, expected=expected)
        lib = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert lib.returncode == 0, lib.stderr
        assert int(lib.stdout) < 64 * 1024, (sm, lib.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_orbit_window_peak_is_flat():
    _, _, small = _limited_main("orbit", "succ", "3", "--window", "1000")
    code, _, large = _limited_main("orbit", "succ", "3", "--window", str(2 * 10**6))
    assert code == 0 and large - small < 20 * 1024

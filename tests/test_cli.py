import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklat import bounds, cli, jsonio
from hklat.jsonio import SCHEMAS

from .support import BAD_RATIONAL_STRINGS, random_zariski_context

SUBCOMMANDS = (
    "disc", "dual", "reflect", "zariski", "bound",
    "moduli-bound", "walls", "chamber", "mld",
)

_MIXED_CTX = {
    "lattice": {"gram": [[2, 1], [1, -4]]},
    "h": [1, 0],
    "primes": [[0, 1]],
}

_WALLED_CTX = {
    "lattice": {"gram": [[2, 0], [0, -2]]},
    "h": [1, 0],
    "walls": [[0, 1]],
}

_U_CTX = {"lattice": {"gram": [[0, 1], [1, 0]]}, "h": [2, 1]}

_MLD_TABLE = {
    "rows": [
        {"label": "E1", "kE": "1", "dE": "0", "center": "p"},
        {"label": "E2", "kE": "2", "dE": "0", "center": "C"},
    ],
    "containment": [["p", "C"]],
}

# one representative, known-good input per subcommand
SAMPLES = {
    "disc": {"gram": [[2, 0], [0, -2]]},
    "dual": {"gram": [[2, 0], [0, -2]], "x": [1, 2]},
    "reflect": {"gram": [[0, 1], [1, 0]], "mirror": [1, -1], "x": [1, 0]},
    "zariski": {"context": _MIXED_CTX, "D": [1, 1], "cardA": 1},
    "bound": {"n": 1, "cardA": 1, "rho": 2},
    "moduli-bound": {"a": 1, "k": 1, "eps": 1, "rho": 2},
    "walls": {"context": _WALLED_CTX, "divisor": [0, 1]},
    "chamber": {"context": _WALLED_CTX, "x": [2, 1]},
    "mld": {"table": _MLD_TABLE, "query": {"along": "C"}},
}


def run_cli(args, stdin_bytes=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hklat", *args],
        input=stdin_bytes,
        capture_output=True,
        env=env,
    )


def write_input(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_disc_frozen_bytes(tmp_path):
    path = write_input(tmp_path, {"gram": [[-4]]})
    proc = run_cli(["disc", path])
    assert proc.returncode == 0
    assert proc.stdout == b'{"factors":[4],"order":"4"}\n'
    assert proc.stderr == b""


def test_bound_frozen_bytes(tmp_path):
    path = write_input(tmp_path, SAMPLES["bound"])
    proc = run_cli(["bound", path])
    assert proc.returncode == 0
    assert proc.stdout == b'{"exact":"240"}\n'


# logarithmic bounds print all 50 digits of their Decimal context: the
# log10 of an exact factorial (m = 64), the Stirling series (m = 1728),
# an argument that is never materialised (m = 400000^29), and a moduli bound
LOG_BOUND_BYTES = [
    ("bound", {"n": 1, "cardA": 1, "rho": 4},
     '{"log10":"90.103416897336678985903959356103389252088115895147","rel_err":"1e-9"}\n'),
    ("bound", {"n": 2, "cardA": 3, "rho": 4},
     '{"log10":"4847.3548168240375602545161161667985324444331065957","rel_err":"1e-9"}\n'),
    ("bound", {"n": 5, "cardA": 100000, "rho": 30},
     '{"log10":"4.6700655035342908237963371592710110888284505177250e+164","rel_err":"1e-9"}\n'),
    ("moduli-bound", {"a": 2, "k": 3, "eps": -1, "rho": 5},
     '{"bound":{"log10":"1687601.0103262873262814635467799665743063744729764","rel_err":"1e-9"},"dim":22}\n'),
]


@pytest.mark.parametrize("name, obj, expected", LOG_BOUND_BYTES,
                         ids=("factorial-log", "stirling", "never-materialised", "moduli"))
def test_logarithmic_bound_frozen_bytes(tmp_path, capsys, name, obj, expected):
    assert cli.main([name, write_input(tmp_path, obj), "--exact-threshold", "20"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_exact_bound_prints_builtin_str(tmp_path):
    query = {"n": 2, "cardA": 1000, "rho": 2}
    value = bounds.birationality_bound(bounds.BoundQuery(**query)).exact_value
    assert value.bit_length() > 36_000
    proc = run_cli(["bound", write_input(tmp_path, query)])
    assert proc.returncode == 0
    assert proc.stdout == b'{"exact":"' + str(value).encode() + b'"}\n'


def test_poset_cycle_error_is_independent_of_the_hash_seed(tmp_path):
    table = {"rows": [{"label": "E", "kE": "1", "dE": "0", "center": "p"}],
             "containment": [["a", "b"], ["b", "c"], ["c", "a"]]}
    path = write_input(tmp_path, {"table": table, "query": {"at": "p"}})
    # at hash seeds 1 and 2 a set-ordered scan names different pairs
    first = run_cli(["mld", path], env_extra={"PYTHONHASHSEED": "1"})
    second = run_cli(["mld", path], env_extra={"PYTHONHASHSEED": "2"})
    assert first.returncode == second.returncode == 1
    assert first.stderr == second.stderr == \
        b"InvalidPosetError: containment cycle through 'a' and 'b'\n"


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_outputs_are_byte_identical_across_runs(tmp_path, name):
    path = write_input(tmp_path, SAMPLES[name])
    first = run_cli([name, path])
    second = run_cli([name, path])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_dual_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["dual"])
    proc = run_cli(["dual", path])
    assert json.loads(proc.stdout) == {"dual": ["2", "-4"], "divisibility": "2"}


def test_reflect_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["reflect"])
    proc = run_cli(["reflect", path])
    assert json.loads(proc.stdout) == {
        "image": ["0", "1"], "integral_reflection": True}


def test_zariski_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["zariski"])
    proc = run_cli(["zariski", path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "P": ["1", "1/4"],
        "N": ["0", "3/4"],
        "support": [0],
        "coefficients": ["3/4"],
        "denominator_lcm": "4",
        "audit": {
            "lcm": "4",
            "support_det": "4",
            "lcm_divides_det": True,
            "bound": {"exact": "24"},
            "within_bound": True,
        },
    }


def test_zariski_logarithmic_audit(tmp_path):
    path = write_input(tmp_path, SAMPLES["zariski"])
    proc = run_cli(["zariski", path, "--exact-threshold", "3"])
    report = json.loads(proc.stdout)
    bound = report["audit"]["bound"]
    assert set(bound) == {"log10", "rel_err"}
    assert bound["rel_err"] == "1e-9"
    assert "E" not in bound["log10"]


def test_zariski_default_cardinality_from_discriminant(tmp_path):
    obj = {"context": _MIXED_CTX, "D": [1, 1]}
    path = write_input(tmp_path, obj)
    proc = run_cli(["zariski", path])
    report = json.loads(proc.stdout)
    # disc order of [[2,1],[1,-4]] is 9, so the bound is 36!
    assert report["audit"]["bound"]["exact"] == str(
        __import__("math").factorial(36))


def test_zariski_default_cardinality_is_the_disc_order_on_seeded_contexts(tmp_path, capsys):
    # the default cardA prints the same bytes as cardA set to the order
    # that disc reports, on every exit path; the threshold keeps exact
    # bounds small
    rng = random.Random(16)
    for trial in range(40):
        ctx = random_zariski_context(rng, steps=trial % 5)
        gram = [list(row) for row in ctx.lattice.gram]
        d = [rng.randint(-4, 4) for _ in range(ctx.lattice.rank)]
        assert cli.main(["disc", write_input(tmp_path, {"gram": gram})]) == 0
        order = int(json.loads(capsys.readouterr().out)["order"])
        obj = {"context": {"lattice": {"gram": gram}, "h": list(ctx.h.coords),
                           "primes": [list(p.coords) for p in ctx.primes]}, "D": d}
        outs = []
        for extra in ({}, {"cardA": order}):
            code = cli.main(["zariski", write_input(tmp_path, {**obj, **extra}),
                             "--exact-threshold", "5000"])
            outs.append((code, capsys.readouterr()))
        assert outs[0] == outs[1]


def test_moduli_bound_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["moduli-bound"])
    proc = run_cli(["moduli-bound", path])
    assert json.loads(proc.stdout) == {
        "dim": 4, "bound": {"exact": "846720"}}


def test_walls_predicate_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["walls"])
    proc = run_cli(["walls", path])
    assert json.loads(proc.stdout) == {
        "is_wall": True,
        "witness": {"orbit_element": ["0", "1"], "wall_index": 0, "factor": "1"},
        "failed_condition": None,
        "orbit_closed": True,
    }


def test_walls_budget_flag_truncates(tmp_path):
    path = write_input(tmp_path, SAMPLES["walls"])
    proc = run_cli(["walls", path, "--budget", "1"])
    report = json.loads(proc.stdout)
    assert report["is_wall"] is True
    assert report["orbit_closed"] is False


def test_walls_enumeration_mode(tmp_path):
    path = write_input(
        tmp_path, {"context": _U_CTX, "square": -2, "pairing_max": 1})
    proc = run_cli(["walls", path])
    assert json.loads(proc.stdout) == {"classes": [["-1", "1"]], "count": 1}


def test_walls_enumerates_nothing_on_a_rank_one_lattice(tmp_path, capsys):
    for gram in ([[1]], [[2]], [[6]]):
        obj = {"context": {"lattice": {"gram": gram}, "h": [1]}, "square": -2, "pairing_max": 6}
        assert cli.main(["walls", write_input(tmp_path, obj)]) == 0
        assert capsys.readouterr() == ('{"classes":[],"count":0}\n', "")


def test_walls_pairing_max_flag(tmp_path):
    path = write_input(tmp_path, {"context": _U_CTX, "square": -2})
    proc = run_cli(["walls", path, "--pairing-max", "1"])
    assert json.loads(proc.stdout) == {"classes": [["-1", "1"]], "count": 1}


def test_chamber_report(tmp_path):
    path = write_input(tmp_path, SAMPLES["chamber"])
    proc = run_cli(["chamber", path])
    assert json.loads(proc.stdout) == {"signs": [-1]}


def test_mld_queries(tmp_path):
    cases = (
        ({"at": "p"}, {"value": "2", "complete": False}),
        ({"along": "C"}, {"value": "2", "complete": False}),
        ({"discrepancy": "E2"}, {"value": "3"}),
        ({"acc": ["1", "2", "2"]},
         {"stationary": True, "stationary_from": 1, "increase_points": [1]}),
    )
    for query, expected in cases:
        path = write_input(tmp_path, {"table": _MLD_TABLE, "query": query})
        proc = run_cli(["mld", path])
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == expected


def test_mld_reports_negative_infinity(tmp_path):
    table = {"rows": [{"label": "E", "kE": "0", "dE": "2", "center": "p"}]}
    path = write_input(tmp_path, {"table": table, "query": {"at": "p"}})
    proc = run_cli(["mld", path])
    assert json.loads(proc.stdout) == {"value": "-inf", "complete": False}


def test_mld_echoes_complete_flag(tmp_path):
    table = dict(_MLD_TABLE, complete=True)
    path = write_input(tmp_path, {"table": table, "query": {"at": "p"}})
    proc = run_cli(["mld", path])
    assert json.loads(proc.stdout) == {"value": "2", "complete": True}


def test_domain_error_exits_one(tmp_path):
    path = write_input(
        tmp_path, {"gram": [[0, 1], [1, 0]], "mirror": [1, 0], "x": [0, 1]})
    proc = run_cli(["reflect", path])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"IsotropicClassError:")


@pytest.mark.parametrize("card", (0, -3))
@pytest.mark.parametrize("name", ("zariski", "bound"))
def test_nonpositive_card_a_exits_one_on_every_subcommand(tmp_path, capsys, name, card):
    path = write_input(tmp_path, {**SAMPLES[name], "cardA": card})
    assert cli.main([name, path]) == 1
    assert capsys.readouterr() == ("", "InvalidQueryError: cardA must be a positive integer\n")


def test_degenerate_dimension_exits_one(tmp_path):
    path = write_input(tmp_path, {"a": 1, "k": 1, "eps": -1, "rho": 1})
    proc = run_cli(["moduli-bound", path])
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"DegenerateDimensionError:")


def test_missing_file_exits_two(tmp_path):
    proc = run_cli(["disc", str(tmp_path / "absent.json")])
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_invalid_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    proc = run_cli(["disc", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"JSONDecodeError:")


def test_schema_violation_exits_two(tmp_path):
    path = write_input(tmp_path, {"gram": "nope"})
    proc = run_cli(["disc", path])
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"SchemaError:")


def test_ambiguous_mld_query_exits_two(tmp_path):
    path = write_input(
        tmp_path, {"table": _MLD_TABLE, "query": {"at": "p", "along": "C"}})
    proc = run_cli(["mld", path])
    assert proc.returncode == 2


def test_unknown_subcommand_exits_two(tmp_path):
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


# sha256 of each subcommand's --schema stdout
SCHEMA_SHA256 = {
    "disc": "2ee16887833cf612efcb10cf2e5e8fef196023cbecb223fa769e958630f005dd",
    "dual": "e3b42bd4e1de1c97f61412224295dd69140b29d579b611e3723ea4dcfdf921f1",
    "reflect": "9fbb3808be32d056dad08437d33de9ff5d63a324dc927c73988c6691e8a46538",
    "zariski": "23998883d275ae76a389101722697c2557921c55116993f5127f56d0db1ea78a",
    "bound": "155ce0a220abc9c61e122ffd0921fab7d4e9d6721ae11bda52262b958a760884",
    "moduli-bound": "bf36f3ea22a16599a5a971c75fec6933396b2ab7be16622353a5dde9c03e19bb",
    "walls": "1ee7c894100698ef60bcc580ac59a2f129fbd68a665c7fc74be8b25711a03350",
    "chamber": "857e31e9864f97bffd08c67e407ed4ebe2207a408dd97be6ee843cae158daf3f",
    "mld": "eb47e6427156bf9a10f930f03d238e3757f1734750bddfdd5e4a45a8fefa7553",
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_schema_flag(name):
    proc = run_cli([name, "--schema"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == json.loads(
        json.dumps(SCHEMAS[name], sort_keys=True))
    assert hashlib.sha256(proc.stdout).hexdigest() == SCHEMA_SHA256[name]


TOP_LEVEL_HELP = """\
usage: hklat [-h] subcommand ...

Exact lattice arithmetic: discriminants, cones, Zariski-type decompositions,
birationality bounds, minimal log discrepancies.

positional arguments:
  subcommand
    disc        discriminant group of a lattice
    dual        dual class and divisibility of a vector
    reflect     reflect a vector in a negative class
    zariski     decompose a class into positive and negative parts
    bound       effective birationality bound
    moduli-bound
                birationality bound for a moduli-space family
    walls       test a wall divisor or enumerate negative classes
    chamber     locate a class relative to the wall hyperplanes
    mld         log discrepancies over a resolution table

options:
  -h, --help    show this help message and exit

Input is a JSON file ('-' for standard input). Rationals are written as
lowest-terms 'p/q' strings, big integers as decimal strings. Output is plain
text; NO_COLOR is honored trivially.
"""

_COMMON_HELP = """\
positional arguments:
  input                 JSON input file, or '-' for standard input

options:
  -h, --help            show this help message and exit
  --format {json,text}  output format (default: json)
  --schema              print the input/output schema and exit
"""

_EXACT_THRESHOLD_HELP = """\
  --exact-threshold EXACT_THRESHOLD
                        largest factorial argument evaluated exactly (default:
                        1000000)
"""


def _plain_usage(name, desc):
    return f"usage: hklat {name} [-h] [--format {{json,text}}] [--schema] [input]\n\n{desc}\n\n"


def _bound_usage(name, desc):
    indent = " " * len(f"usage: hklat {name} ")
    return (f"usage: hklat {name} [-h] [--format {{json,text}}] [--schema]\n"
            f"{indent}[--exact-threshold EXACT_THRESHOLD]\n{indent}[input]\n\n{desc}\n\n")


SUBCOMMAND_HELP = {
    "disc": _plain_usage("disc", "discriminant group of a lattice") + _COMMON_HELP,
    "dual": _plain_usage("dual", "dual class and divisibility of a vector") + _COMMON_HELP,
    "reflect": _plain_usage("reflect", "reflect a vector in a negative class") + _COMMON_HELP,
    "zariski": _bound_usage("zariski", "decompose a class into positive and negative parts")
               + _COMMON_HELP + _EXACT_THRESHOLD_HELP,
    "bound": _bound_usage("bound", "effective birationality bound")
             + _COMMON_HELP + _EXACT_THRESHOLD_HELP,
    "moduli-bound": _bound_usage("moduli-bound", "birationality bound for a moduli-space family")
                    + _COMMON_HELP + _EXACT_THRESHOLD_HELP,
    "walls": """\
usage: hklat walls [-h] [--format {json,text}] [--schema] [--budget BUDGET]
                   [--pairing-max PAIRING_MAX]
                   [input]

test a wall divisor or enumerate negative classes

""" + _COMMON_HELP + """\
  --budget BUDGET       orbit search budget (default: 1000)
  --pairing-max PAIRING_MAX
                        override the enumeration pairing bound
""",
    "chamber": _plain_usage("chamber", "locate a class relative to the wall hyperplanes")
               + _COMMON_HELP,
    "mld": _plain_usage("mld", "log discrepancies over a resolution table") + _COMMON_HELP,
}


def _help_text(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


# argparse in 3.13 widens the subcommand column of the top-level help
@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help layout pinned for 3.10-3.12")
def test_top_level_help_bytes(monkeypatch, capsys):
    assert _help_text(monkeypatch, capsys, []) == TOP_LEVEL_HELP


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_bytes(monkeypatch, capsys, name):
    assert _help_text(monkeypatch, capsys, [name]) == SUBCOMMAND_HELP[name]


def test_text_format(tmp_path):
    path = write_input(tmp_path, SAMPLES["disc"])
    proc = run_cli(["disc", path, "--format", "text"])
    assert proc.returncode == 0
    assert proc.stdout == b'factors: [2, 2]\norder: "4"\n'


def test_framed_vector_input_form(tmp_path):
    bare = write_input(tmp_path, SAMPLES["dual"], "bare.json")
    framed = write_input(
        tmp_path,
        {"gram": [[2, 0], [0, -2]],
         "x": {"frame": "primal", "coords": ["1", "2"]}},
        "framed.json")
    assert run_cli(["dual", bare]).stdout == run_cli(["dual", framed]).stdout


def test_dual_frame_input_rejected(tmp_path):
    path = write_input(
        tmp_path,
        {"gram": [[2, 0], [0, -2]],
         "x": {"frame": "dual", "coords": ["1", "2"]}})
    proc = run_cli(["dual", path])
    assert proc.returncode == 2


def test_stdin_input():
    payload = json.dumps(SAMPLES["bound"]).encode()
    proc = run_cli(["bound", "-"], stdin_bytes=payload)
    assert proc.returncode == 0
    assert proc.stdout == b'{"exact":"240"}\n'


def test_no_color_is_a_no_op(tmp_path):
    path = write_input(tmp_path, SAMPLES["disc"])
    plain = run_cli(["disc", path])
    colored = run_cli(["disc", path], env_extra={"NO_COLOR": "1"})
    assert plain.stdout == colored.stdout


def test_subcommand_table_holds_each_name_options_and_schema():
    assert tuple(jsonio.SUBCOMMANDS) == SUBCOMMANDS
    config_fields = set(cli.RunConfig._fields)
    for name, sub in jsonio.SUBCOMMANDS.items():
        assert set(sub.options) <= config_fields, name
        assert SCHEMAS[name] is sub.schema


_UNREADABLE = {
    "not-utf8": ("disc", b'{"gram": [[\xff]]}',
                 "SchemaError: input is not UTF-8 text: 'utf-8' codec can't decode "
                 "byte 0xff in position 11: invalid start byte\n"),
    # well-formed JSON once decoded with surrogateescape
    "not-utf8-label": ("mld", b'{"query": {"at": "p"}, "table": {"containment": [], '
                              b'"rows": [{"center": "p", "dE": "0", "kE": "1", "label": "E\xff"}]}}',
                       "SchemaError: input is not UTF-8 text: 'utf-8' codec can't decode "
                       "byte 0xff in position 110: invalid start byte\n"),
    "too-deep": ("disc", b'{"gram": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "SchemaError: input nests too deeply to parse\n"),
}


# "escaped-stdin" decodes as stdin does in the C locale
@pytest.mark.parametrize("source", ("file", "stdin", "escaped-stdin"))
@pytest.mark.parametrize("case", _UNREADABLE)
def test_unreadable_input_exits_two(tmp_path, capsys, monkeypatch, case, source):
    name, raw, message = _UNREADABLE[case]
    if source == "file":
        path = tmp_path / "input.json"
        path.write_bytes(raw)
        argv = [name, str(path)]
    else:
        errors = "surrogateescape" if source == "escaped-stdin" else "strict"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                                           errors=errors))
        argv = [name, "-"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit for one test. The
    conftest, and any earlier in-process main() call, have lifted it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_run_prints_exact_bounds_past_the_default_digit_limit(tmp_path, capsys,
                                                              default_digit_limit):
    path = write_input(tmp_path, {"n": 1, "cardA": 2, "rho": 5})
    assert cli.run(cli.RunConfig("bound", path)) == 0
    via_run = capsys.readouterr().out
    assert len(via_run) > 4300
    assert cli.main(["bound", path]) == 0
    assert capsys.readouterr().out == via_run


# sha256 of `hklat bound` stdout for n = 2, cardA = 8192, rho = 2: 21 * 32768!
_BOUND_8192_SHA256 = "4c2095d95d28d2c10f5989fe42b2acbe21b8f0662c5bc817788d099e772a8909"


def test_exact_bound_prints_without_the_integer(monkeypatch, default_digit_limit):
    # the record and dump_canonical, not cli.run, which lifts the limit
    def no_factorial(m):
        raise AssertionError("the print path built m! as an int")

    monkeypatch.setattr(bounds, "factorial", no_factorial)
    obj = {"n": 2, "cardA": 8192, "rho": 2}
    out = jsonio.dump_canonical(jsonio.SUBCOMMANDS["bound"].run(obj, cli.RunConfig("bound"))).encode()
    assert len(out) == 133_749
    assert hashlib.sha256(out).hexdigest() == _BOUND_8192_SHA256


@pytest.mark.parametrize("key", ("primes", "walls", "monodromy_gens"))
@pytest.mark.parametrize("value", (5, None, {}, "ab"))
def test_non_list_context_list_exits_two(tmp_path, capsys, key, value):
    context = {**_U_CTX, key: value}
    path = write_input(tmp_path, {"context": context, "x": [2, 1]})
    assert cli.main(["chamber", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"SchemaError: input.context.{key}: expected a list\n"


_BAD_WALLS = [[0, 1]] * 200
_BAD_WALLS[137] = [0, "1.5"]
# (item, end of its message): each is put at index 137 of 200 JSON
# integer vectors, the shape jsonio reads in one pass when it is valid
_BAD_VECTOR_ITEMS = (
    (1.5, ": expected a nonempty list of rationals"),
    (True, ": expected a nonempty list of rationals"),
    ([], ": expected a nonempty list of rationals"),
    ([[0, 1]], "[0]: expected an integer or 'p/q' string"),
    ([0, 1.5], "[1]: expected an integer or 'p/q' string"),
    ([0, True], "[1]: expected an integer or 'p/q' string"),
    ([0, [1]], "[1]: expected an integer or 'p/q' string"),
    ({"frame": "dual", "coords": [0, 1]}, ": only primal vectors are accepted as input"),
)


def _with_item_137(item) -> list:
    items = [[0, 1]] * 200
    items[137] = item
    return items


_BAD_ROWS = [*_MLD_TABLE["rows"], {"label": "E3", "kE": "1", "dE": "0"}]


# valid inputs whose leaves are written by type: integers as JSON
# numbers, rationals as strings, and flags as booleans
_LEAF_CTX = {
    "lattice": {"gram": [[2, 0], [0, -2]]},
    "h": ["1", "0"],
    "primes": [["0", "1"]],
    "walls": [["0", "1"]],
    "monodromy_gens": [[[1, 0], [0, -1]]],
}
_LEAF_TABLE = {
    "rows": [
        {"label": "E1", "kE": "1", "dE": "0", "center": "p"},
        {"label": "E2", "kE": "2", "dE": "1/2", "center": "C"},
    ],
    "containment": [["p", "C"]],
    "complete": True,
}
_LEAF_INPUTS = (
    ("disc", {"gram": [[2, 0], [0, -2]]}),
    ("dual", {"gram": [[2, 1], [1, -4]], "x": {"frame": "primal", "coords": ["1", "1/2"]}}),
    ("reflect", {"gram": [[0, 1], [1, 0]], "mirror": ["1", "-1"], "x": ["1", "0"]}),
    ("zariski", {"context": _LEAF_CTX, "D": ["1", "1"], "cardA": 1}),
    ("bound", {"n": 1, "cardA": 1, "rho": 2}),
    ("moduli-bound", {"a": 1, "k": 1, "eps": 1, "rho": 2}),
    ("walls", {"context": _LEAF_CTX, "divisor": ["0", "1"]}),
    ("walls", {"context": _LEAF_CTX, "square": -2, "pairing_max": 2, "primitive_only": True}),
    ("chamber", {"context": _LEAF_CTX, "x": ["2", "1"]}),
    ("mld", {"table": _LEAF_TABLE, "query": {"along": "C"}}),
    ("mld", {"table": _LEAF_TABLE, "query": {"acc": ["1", "1/2", "2"]}}),
)
# what each parser says of the float 1.5, by the type of the leaf it replaces
_REJECTS_FLOAT = {
    int: "expected an integer",
    str: "expected an integer or 'p/q' string",
    bool: "expected a boolean",
}


def _each_leaf_replaced(value, path):
    """(error message, copy of value) with each integer, rational or
    boolean leaf in turn replaced by 1.5, the message naming its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            for message, sub in _each_leaf_replaced(item, f"{path}.{key}"):
                yield message, {**value, key: sub}
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for message, sub in _each_leaf_replaced(item, f"{path}[{i}]"):
                yield message, [*value[:i], sub, *value[i + 1:]]
    elif not (isinstance(value, str) and value[0].isalpha()):  # not a label
        yield f"{path}: {_REJECTS_FLOAT[type(value)]}", 1.5


@pytest.mark.parametrize("name, obj, message", (
    ("chamber", {"context": {**_WALLED_CTX, "walls": _BAD_WALLS}, "x": [2, 1]},
     "input.context.walls[137][1]: cannot parse '1.5' as a rational"),
    ("mld", {"table": {**_MLD_TABLE, "rows": _BAD_ROWS}, "query": {"along": "C"}},
     "input.table.rows[2]: missing required key 'center'"),
    *((name, obj, message) for name, valid in _LEAF_INPUTS
      for message, obj in _each_leaf_replaced(valid, "input")),
    *(("chamber", {"context": {**_WALLED_CTX, key: _with_item_137(item)}, "x": [2, 1]},
       f"input.context.{key}[137]{end}")
      for key in ("primes", "walls") for item, end in _BAD_VECTOR_ITEMS),
))
def test_bad_list_item_is_named_by_its_index(tmp_path, capsys, name, obj, message):
    assert cli.main([name, write_input(tmp_path, obj)]) == 2
    assert capsys.readouterr() == ("", f"SchemaError: {message}\n")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_missing_input_path_exits_two(capsys, name):
    assert cli.main([name]) == 2
    assert capsys.readouterr() == (
        "", "SchemaError: an input file is required unless --schema is given\n")


# flag -> (RunConfig field, value passed, subcommands that take the flag)
_FLAGS = {
    "--budget": ("orbit_budget", 5, {"walls"}),
    "--pairing-max": ("pairing_max", 2, {"walls"}),
    "--exact-threshold": ("exact_threshold", 7, {"bound", "moduli-bound", "zariski"}),
    "--format": ("fmt", "text", set(SUBCOMMANDS)),
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_flags_live_on_their_subcommands_and_default_from_run_config(
        monkeypatch, capsys, name):
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    cli.main([name])
    cli.main([name, "in.json", "--schema"])
    assert seen == [cli.RunConfig(name), cli.RunConfig(name, "in.json", schema=True)]
    for flag, (field, value, homes) in _FLAGS.items():
        if name in homes:
            cli.main([name, flag, str(value)])
            assert seen[-1] == cli.RunConfig(name, **{field: value})
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main([name, flag, str(value)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# RunConfig field -> (a value its flag takes, one it rejects)
_FLAG_VALUES = {
    "fmt": ("text", "xml"),
    "orbit_budget": ("5", "x"),
    "pairing_max": ("2", "x"),
    "exact_threshold": ("7", "x"),
}


def _argv_corpus():
    yield from ([], ["-h"], ["frobnicate"], ["dis"], ["--budget", "3"], ["--", "disc"])
    for name, sub in jsonio.SUBCOMMANDS.items():
        foreign = "--budget" if "orbit_budget" not in sub.options else "--exact-threshold"
        yield from ([name], [name, "-h"], [name, "--schema"], [name, "--schema=1"],
                    [name, "-", foreign, "3"], [name, "a.json", "b.json"])
        # abbreviated, joined and repeated flags, "--" on either side of the
        # input, an unknown option, and leftovers after -h and --schema
        yield from ([name, "in.json", "--form", "text"], [name, "--form=text", "in.json"],
                    [name, "in.json", "--format=text"],
                    [name, "in.json", "--format", "json", "--format", "text"],
                    [name, "--", "in.json"], [name, "in.json", "--"], [name, "--", "-"],
                    [name, "in.json", "--", "b.json"],
                    [name, "--frobnicate", "in.json"], [name, "-h", "a.json", "b.json"],
                    [name, "--schema", "a.json", "b.json"])
        for key in ("fmt", *sub.options):
            for value in _FLAG_VALUES[key]:
                yield [name, "in.json", cli._OPTIONS[key][0], value]


def _outcome(monkeypatch, call):
    """stdout, stderr, the exit code or SystemExit code, and each RunConfig run saw."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return out.getvalue(), err.getvalue(), code, seen


@pytest.mark.parametrize("argv", list(_argv_corpus()), ids=lambda argv: " ".join(argv) or "()")
def test_main_parses_as_the_full_parser_does(monkeypatch, argv):
    # main parses with the parser argv[0] names on its own; the reference
    # parses with the full tree
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(monkeypatch, lambda: cli.run(
        cli.RunConfig(**vars(cli._build_parser().parse_args(argv)))))
    assert _outcome(monkeypatch, lambda: cli.main(argv)) == expected
    # the console script passes no argv
    monkeypatch.setattr(sys, "argv", ["hklat", *argv])
    assert _outcome(monkeypatch, cli.main) == expected


def _build_tree():
    raise AssertionError("main built the full parser tree")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_named_subcommand_parses_without_the_full_tree(monkeypatch, capsys, name):
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    monkeypatch.setattr(cli, "_build_parser", _build_tree)
    assert cli.main([name, "--schema"]) == 0
    assert seen == [cli.RunConfig(name, schema=True)]
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hklat {name} [-h]")
    # a leftover argument needs the tree's "unrecognized arguments" error
    with pytest.raises(AssertionError, match="full parser tree"):
        cli.main([name, "-", "extra"])
    assert len(seen) == 1


# each integer field of the input, with a marker where the string goes
_INTEGER_FIELDS = {
    "n": ("bound", {"n": "?", "cardA": 1, "rho": 1}),
    "cardA": ("bound", {"n": 1, "cardA": "?", "rho": 1}),
    "rho": ("bound", {"n": 1, "cardA": 1, "rho": "?"}),
    "square": ("walls", {"context": _U_CTX, "square": "?", "pairing_max": 2}),
    "pairing_max": ("walls", {"context": _U_CTX, "square": -2, "pairing_max": "?"}),
    "gram[1][1]": ("disc", {"gram": [[2, 0], [0, "?"]]}),
}


@pytest.mark.parametrize("key", _INTEGER_FIELDS)
def test_integer_fields_reject_what_is_not_a_decimal_integer(monkeypatch, capsys, key):
    # int() alone reads "1_0" as 10, and " 3 " and Arabic-Indic digits too
    name, template = _INTEGER_FIELDS[key]
    for text in (*BAD_RATIONAL_STRINGS, "1_0", " 3 ", "\u0663"):
        obj = json.loads(json.dumps(template).replace('"?"', json.dumps(text)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        assert cli.main([name, "-"]) == 2, text
        assert capsys.readouterr() == (
            "", f"SchemaError: input.{key}: cannot parse {text!r} as an integer\n")


# --- fuzz: documented keys with small values of right and wrong JSON types

_SMALL = st.integers(-3, 3)
_RATIONAL = _SMALL | st.builds("{}/{}".format, _SMALL, st.integers(1, 3))
_VECTOR = st.lists(_RATIONAL, min_size=1, max_size=3)
_SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_SMALL, min_size=n, max_size=n), min_size=n, max_size=n))
# symmetric, so that most contexts get past make_lattice
_GRAM = _SQUARE.map(lambda m: [[m[min(i, j)][max(i, j)] for j in range(len(m))]
                               for i in range(len(m))])
_LABEL = st.sampled_from(("p", "C", "E1", "E2"))
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), _SMALL, st.floats(-3, 3), st.text(max_size=3),
    st.lists(_SMALL | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), _SMALL, max_size=3))


def _documented(keys):
    """An object with every documented key, each a well-typed value."""
    return st.fixed_dictionaries({key: st.deferred(lambda key=key: _VALUES[key]) for key in keys})


_VALUES = {
    **dict.fromkeys(("n", "cardA", "rho", "a", "k", "eps", "square", "pairing_max"), _SMALL),
    **dict.fromkeys(("x", "mirror", "D", "divisor", "h"), _VECTOR),
    **dict.fromkeys(("primes", "walls"), st.lists(_VECTOR, max_size=3)),
    **dict.fromkeys(("primitive_only", "complete"), st.booleans()),
    "gram": _GRAM,
    "monodromy_gens": st.lists(_SQUARE, max_size=2),
    "lattice": _documented(SCHEMAS["disc"]["input"]),
    "context": _documented(SCHEMAS["chamber"]["input"]["context"]),
    "table": _documented(SCHEMAS["mld"]["input"]["table"]),
    "rows": st.lists(_documented(SCHEMAS["mld"]["input"]["table"]["rows"][0]), max_size=3),
    "label": _LABEL, "center": _LABEL, "kE": _RATIONAL, "dE": _RATIONAL,
    "containment": st.lists(st.lists(_LABEL, min_size=2, max_size=2), max_size=3),
    "query": st.dictionaries(st.sampled_from(("at", "along", "discrepancy")), _LABEL,
                             min_size=1, max_size=1)
             | st.fixed_dictionaries({"acc": st.lists(_RATIONAL, max_size=3)}),
}


def _keyed(value):
    """(object, key) for every key of every object nested in value."""
    if isinstance(value, dict):
        for key in value:
            yield value, key
            yield from _keyed(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from _keyed(item)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_exits_cleanly_on_fuzzed_input(name, data):
    obj = data.draw(_documented(SCHEMAS[name]["input"]))
    # up to three keys deleted or given a value of any JSON type
    for _ in range(data.draw(st.integers(0, 3))):
        keyed = list(_keyed(obj))
        if not keyed:
            break
        parent, key = data.draw(st.sampled_from(keyed))
        if data.draw(st.booleans()):
            parent.pop(key, None)
        else:
            parent[key] = data.draw(_ANY_JSON)
    flags = data.draw(st.sampled_from(([], ["--format", "text"])))
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(obj))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([name, "-", *flags])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert code == 0 or out.getvalue() == ""

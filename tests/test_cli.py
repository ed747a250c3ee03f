import hashlib
import json
import math
import os
import re

import pytest

from indlab import bell, cli, hv, ks
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq

from builders import bits, count_walks, save_model
from bundled import bundled_path, bundled_problem


def test_komplexity_rejects_exact_max_len_above_cap(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        pytest.fail("enumerated programs despite the length cap")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tm, "enumerate_domain", no_search)
    sq.write_sequence_file("x.seq", bits("0110"))
    code = cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len",
                         str(rl.EXACT_SEARCH_MAX_LEN + 1), "--json", "k.json"])
    assert code == cli.EXIT_USAGE
    assert not os.path.exists("k.json")


def _hv_csv_with_row(edit, row: int = 1) -> None:
    """Save a 1,200-trial hv run as run.csv with data row `row` (0: the
    header) passed through edit."""
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    trials = bell.run_bipartite(
        "hv", bell.DEFAULT_SETTINGS, 1200, seed=6, hv_ensemble=[(1.0, strat)]
    )
    bell.save_trials_csv("run.csv", trials)
    with open("run.csv") as f:
        lines = f.read().splitlines()
    lines[row] = edit(lines[row])
    with open("run.csv", "w") as f:
        f.write("\n".join(lines) + "\n")


def _hv_csv_with_first_lambda(lambda_id: str) -> None:
    """Save a 1,200-trial hv run as run.csv with the first row's lambda_id replaced."""
    _hv_csv_with_row(lambda row: row.rsplit(",", 1)[0] + "," + lambda_id)


def test_bell_analyze_rejects_partly_blank_lambda_column(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_lambda("")
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    assert "run.csv: lambda_id is blank on 1 of 1200 rows" in capsys.readouterr().err
    assert not os.path.exists("b.json")


def test_bell_analyze_rejects_negative_lambda_id(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_lambda("-1")
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    assert "run.csv: lambda_id must be >= 0, found -1" in capsys.readouterr().err
    assert not os.path.exists("b.json")


MALFORMED_ROWS = [  # (id, row, message naming data row {})
    # the column count is numpy's wording
    ("short-row", "0.0,30.0", "run.csv: the dtype passed requires 5 columns but 2 were "
                              "found at row {};"),
    ("six-fields", "0.0,30.0,0,1,0,0", "run.csv: the dtype passed requires 5 columns but 6 "
                                       "were found at row {};"),
    ("alpha-2", "0.0,30.0,2,0,0", "alpha 2 on data row {} is not among [0, 1]"),
    ("beta-minus-1", "0.0,30.0,0,-1,0", "beta -1 on data row {} is not among [0, 1]"),
    ("angle-not-in-settings", "45.0,30.0,0,1,0",
     "a_deg 45.0 on data row {} is not among [0.0, 30.0, 60.0]"),
]


# a bad row after 699 good ones must be named as the file's row 700, not by
# its place among the file's distinct lines
@pytest.mark.parametrize("at,row,message", [
    pytest.param(at, row, message.format(at), id=name if at == 1 else f"{name}-at-{at}")
    for at in (1, 5, 700) for name, row, message in MALFORMED_ROWS
])
def test_bell_analyze_rejects_malformed_rows(at, row, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_row(lambda _: row, at)
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err, err
    assert not os.path.exists("b.json")


@pytest.mark.parametrize("header", ["a_deg,b_deg,alpha,beta,banana", "a_deg,b_deg,alpha,beta"],
                         ids=["wrong-fifth-name", "four-names"])
def test_bell_analyze_rejects_a_wrong_header(header, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_row(lambda _: header, 0)
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE == 1
    assert f"unexpected CSV header {header!r}" in capsys.readouterr().err
    assert not os.path.exists("b.json")


def test_bell_analyze_exit_2_still_writes_report_and_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["bell", "run", "--model", "signaling", "--n", "20000", "--seed", "3",
                         "--out", "s.csv"]) == cli.EXIT_OK
    assert cli.dispatch(["bell", "analyze", "--in", "s.csv", "--json", "s.json"]) \
        == cli.EXIT_CHECK_FAILED
    assert "no-signaling marginal independence failed" in capsys.readouterr().err
    with open("s.json") as f:
        report = json.load(f)
    assert report["schema"] == "bell/v1"
    assert not report["no_signaling"]["alice"]["pass"]
    with open("s.json.manifest.json") as f:
        manifest = json.load(f)
    assert manifest["schema"] == "manifest/v1"
    assert set(manifest["outputs"]) == {"s.json"}


def _patch(module, name: str, value):
    """A case setup that monkeypatches module.name to value."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


# a fair-coin model whose declared target its pushforward misses
SKEW_MODEL = {"skew.json": json.dumps({"schema": "hv/v1",
                                       "space": {"kind": "discrete", "size": 2}, "g": [0, 1],
                                       "mu": [0.5, 0.5], "target": [0.9, 0.1]})}
# a model whose target lists more outcomes than g reaches
LONG_TARGET_MODEL = {"long.json": json.dumps({"schema": "hv/v1",
                                              "space": {"kind": "discrete", "size": 2},
                                              "g": [0, 1], "mu": [0.5, 0.5],
                                              "target": [0.5, 0.25, 0.25]})}
# id: (files, argv writing the report r.json, its schema, patch or None), each exiting 2
EXIT_2_CASES = {
    "analyze-borel": (
        {"c.seq": "seq/v1 k=2 n=1000\n" + "0" * 1000 + "\n"},
        ["analyze", "--in", "c.seq", "--tests", "borel", "--max-block", "2", "--json", "r.json"],
        "randlab/v1", None),
    "hv-audit1-target": (SKEW_MODEL, ["hv", "audit1", "--model", "skew.json", "--json", "r.json"],
                         "hv-audit1/v1", None),
    "hv-audit2-bias": ({}, ["hv", "audit2", "--model", "parity4.json", "--bias", "0.7,0.1,0.1,0.1",
                            "--n", "10000", "--json", "r.json"], "hv-audit2/v1", None),
    "hv-audit2-target": (SKEW_MODEL, ["hv", "audit2", "--model", "skew.json", "--n", "10000",
                                      "--json", "r.json"], "hv-audit2/v1", None),
    "hv-audit2-target-length": (LONG_TARGET_MODEL, ["hv", "audit2", "--model", "long.json",
                                                    "--n", "10000", "--json", "r.json"],
                                "hv-audit2/v1", None),
    "ks-verify-two-marks": (
        {"marks.json": json.dumps([1, 1, 0, 0, 0, 0, 0])},  # two marks in basis (0, 1, 2)
        ["ks", "verify", "--rays", "demo_colorable.rays", "--coloring", "marks.json",
         "--json", "r.json"], "ks/v1", None),
    "omega-prefix-pair": ({}, ["omega", "--max-len", "6", "--steps", "100", "--json", "r.json"],
                          "randlab/v1",
                          _patch(rl, "prefix_free_violations", lambda programs: [("0", "01")])),
    "ks-search-rejected": ({}, ["ks", "search", "--rays", "demo_colorable.rays", "--json", "r.json"],
                           "ks/v1", _patch(ks, "verify_coloring", lambda problem, marks: False)),
}


def _set_up(files: dict, patch, monkeypatch) -> None:
    for name, text in files.items():
        with open(name, "w") as f:
            f.write(text)
    if patch:
        patch(monkeypatch)


@pytest.mark.parametrize("case", EXIT_2_CASES.values(), ids=EXIT_2_CASES)
def test_exit_2_still_writes_report_and_manifest(case, tmp_path, monkeypatch, capsys):
    files, argv, schema, patch = case
    monkeypatch.chdir(tmp_path)
    _set_up(files, patch, monkeypatch)
    assert cli.dispatch(argv) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err.startswith("CHECK FAILED: ")
    with open("r.json") as f:
        assert json.load(f)["schema"] == schema
    with open("r.json.manifest.json") as f:
        manifest = json.load(f)
    assert manifest["schema"] == "manifest/v1"
    assert set(manifest["outputs"]) == {"r.json"}


@pytest.mark.parametrize("case", [None, *EXIT_2_CASES.values()],
                         ids=["golden-runs", *EXIT_2_CASES])
def test_exit_2_iff_a_claim_failed(case, tmp_path, monkeypatch, capsys):
    """Each JSON report lists its claims; a run exits 2 iff one failed, and
    stderr names exactly the failed claims' why."""
    monkeypatch.chdir(tmp_path)
    runs = [argv for argv, _ in GOLDEN_RUNS]
    if case:
        files, argv, _, patch = case
        _set_up(files, patch, monkeypatch)
        runs = [argv]
    for argv in runs:
        code, err = cli.dispatch(argv), capsys.readouterr().err
        claims = []
        if "--json" in argv:
            with open(argv[argv.index("--json") + 1]) as f:
                claims = json.load(f)["claims"]
        assert all(set(c) == {"claim", "status", "why"} and c["status"] in cli.CLAIM_STATUSES
                   for c in claims), claims
        failed = [c["why"] for c in claims if c["status"] == "fail"]
        assert code == (cli.EXIT_CHECK_FAILED if failed else cli.EXIT_OK), argv
        assert err == ("CHECK FAILED: " + "; ".join(failed) + "\n" if failed else ""), argv


# a claim line as dispatch prints it; report's own lines are indented
CLAIM_LINE = re.compile(r"^(pass|fail|skipped) +\S+: ", re.MULTILINE)


@pytest.mark.parametrize("case", [None, *EXIT_2_CASES.values()],
                         ids=["golden-runs", *EXIT_2_CASES])
def test_stdout_ends_with_the_claims(case, tmp_path, monkeypatch, capsys):
    """A run prints each claim of its report once, last, as report lists it;
    generate, hv run, bell run and report print no claim line."""
    monkeypatch.chdir(tmp_path)
    runs = [argv for argv, _ in GOLDEN_RUNS]
    if case:
        files, argv, _, patch = case
        _set_up(files, patch, monkeypatch)
        runs = [argv]
    for argv in runs:
        cli.dispatch(argv)
        out = capsys.readouterr().out
        claims = []
        if "--json" in argv:
            with open(argv[argv.index("--json") + 1]) as f:
                claims = json.load(f)["claims"]
        assert bool(claims) != (argv[0] in ("generate", "report") or argv[1] == "run"), argv
        assert len(CLAIM_LINE.findall(out)) == len(claims), (argv, out)
        assert out.endswith("".join(cli._claim_line(c) + "\n" for c in claims)), (argv, out)


def test_ks_search_needs_no_recursion_per_ray(tmp_path, monkeypatch):
    """1,200 rays in no basis, more than the interpreter's default recursion
    limit of 1,000 frames, are marked before the search: one node.  1,050
    disjoint bases take one search level each."""
    monkeypatch.chdir(tmp_path)
    with open("loose.rays", "w") as f:
        f.write("rays/v1\n" + "".join(f"ray r{i} 1 {i} 0\n" for i in range(1200)))
    with open("deep.rays", "w") as f:
        # (1, k, 1), (k, -1, 0) and their cross product are a basis of their own
        f.write("rays/v1\n" + "".join(f"ray a{k} 1 {k} 1\nray b{k} {k} -1 0\n"
                                      f"ray c{k} 1 {k} {-1 - k * k}\nbasis a{k} b{k} c{k}\n"
                                      for k in range(1, 1051)))
    for rays, nodes, depth in (("loose.rays", 1, 0), ("deep.rays", 1051, 1050)):
        assert cli.dispatch(["ks", "search", "--rays", rays, "--json", f"{rays}.json"]) \
            == cli.EXIT_OK
        with open(f"{rays}.json") as f:
            report = json.load(f)
        assert (report["status"], report["nodes"], report["max_depth"], report["verified"]) \
            == ("colored", nodes, depth, True)
    assert cli.dispatch(["ks", "verify", "--rays", "loose.rays", "--coloring", "loose.rays.json",
                         "--json", "v.json"]) == cli.EXIT_OK


def test_report_skips_manifests_but_rejects_other_schemas(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["omega", "--max-len", "6", "--steps", "100", "--json", "o.json"]) \
        == cli.EXIT_OK
    assert cli.dispatch(["report", "--in", "o.json", "o.json.manifest.json",
                         "--json", "r.json"]) == cli.EXIT_OK
    with open("r.json") as f:
        assert [s["path"] for s in json.load(f)["sections"]] == ["o.json"]
    with open("x.json", "w") as f:
        json.dump({"schema": "other/v1"}, f)
    assert cli.dispatch(["report", "--in", "o.json", "x.json"]) == cli.EXIT_USAGE


def test_hv_audit2_os_sampler_on_300_states_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    g = tuple(i % 2 for i in range(300))
    save_model("big.json", hv.HVModel(g, (1 / 300,) * 300))
    for argv in (["hv", "audit2", "--n", "10000", "--json", "a.json"],
                 ["hv", "run", "--n", "8", "--out", "h.seq"]):
        assert cli.dispatch(argv + ["--model", "big.json", "--sampler", "os"]) \
            == cli.EXIT_USAGE
        _one_error_line(capsys, "--sampler os draws up to 256 states, the model has 300")
        assert os.listdir() == ["big.json"]


def _one_error_line(capsys, *fragments) -> None:
    """stderr holds exactly one line, an `error:` line holding every fragment."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(f in lines[0] for f in fragments), lines


@pytest.mark.parametrize("argv,fragments", [
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "constant:5",
      "--n", "8", "--out", "h.seq"],
     ("--sampler constant:5 emits", "state 5 outside the space of size 2")),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "0.5,0.5", "--n", "10000",
      "--json", "a.json"], ("covers 2 states, space has 4",)),
    (["generate", "--kind", "born", "--probs", "0.5,nan", "--n", "10", "--out", "x.seq"],
     ("--probs must be finite, non-negative and sum to 1, got [0.5, nan]",)),
    (["bell", "run", "--settings", "0,0,30", "--n", "600", "--out", "b.csv"],
     ("error: --settings: ", "repeat an angle")),
    (["bell", "run", "--settings", "0,nan,30", "--n", "600", "--out", "b.csv"],
     ("error: --settings: ", "must be finite angles")),
    (["omega", "--steps", "-3", "--json", "o.json"], ("--steps must be >= 0, got -3",)),
    (["generate", "--kind", "champernowne", "--base", "40", "--n", "100", "--out", "z.seq"],
     ("--base must be in 2..36, got 40",)),
    (["hv", "run", "--model", "fair_coin_counter.json", "--bias", "0.6,0.4", "--n", "8",
      "--out", "h.seq"], ("--bias applies only to --sampler prng", "'counter'")),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--sampler", "alternating",
      "--bias", "0.6,0.4", "--json", "h1.json"], ("--bias applies only to --sampler prng",)),
    (["hv", "audit2", "--model", "parity4.json", "--sampler", "os",
      "--bias", "0.7,0.1,0.1,0.1", "--n", "10000", "--json", "h2.json"],
     ("--bias applies only to --sampler prng", "'os'")),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--checkpoints", "100,abc",
      "--json", "h1.json"], ("--checkpoints: bad entry 'abc'",)),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--checkpoints", "100,,1000",
      "--json", "h1.json"], ("--checkpoints: bad entry ''",)),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--checkpoints", "1000,100",
      "--json", "h1.json"], ("checkpoints must be ascending",)),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--sampler", "counter",
      "--checkpoints", "5,5", "--json", "h1.json"], ("checkpoints must be ascending",)),
    (["generate", "--fair-coin", "--kind", "champernowne", "--n", "8", "--out", "g.seq"],
     ("--fair-coin stands for --kind born --probs 0.5,0.5",
      "got --kind champernowne --probs 0.5,0.5")),
    (["generate", "--fair-coin", "--probs", "0.9,0.1", "--n", "8", "--out", "g.seq"],
     ("--fair-coin stands for", "got --kind born --probs 0.9,0.1")),
    (["generate", "--kind", "born", "--probs", "0.5,x", "--n", "10", "--out", "x.seq"],
     ("--probs: bad entry 'x'",)),
    (["generate", "--kind", "periodic", "--pattern", "0,x", "--n", "10", "--out", "x.seq"],
     ("--pattern: bad entry 'x'",)),
    (["generate", "--kind", "periodic", "--pattern", "2", "--n", "10", "--out", "x.seq"],
     ("--pattern must be in 0..1, got 2",)),
    (["bell", "run", "--settings", "0,x", "--n", "600", "--out", "b.csv"],
     ("--settings: bad entry 'x'",)),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "0.5,y", "--n", "10000",
      "--json", "h2.json"], ("--bias: bad entry 'y'",)),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "constant5",
      "--n", "8", "--out", "h.seq"], ("--sampler: unknown sampler 'constant5'",)),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "constant:1:2",
      "--n", "8", "--out", "h.seq"], ("--sampler: bad state '1:2' in 'constant:1:2'",)),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "constant:x",
      "--n", "8", "--out", "h.seq"], ("--sampler: bad state 'x' in 'constant:x'",)),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "file:",
      "--n", "8", "--out", "h.seq"], ("--sampler: unknown sampler 'file:'",)),
    (["hv", "run", "--model", "", "--n", "8", "--out", "h.seq"],
     ("no such file ''", cli.data_dir())),
    (["ks", "search", "--rays", ""], ("no such file ''", cli.data_dir())),
    (["generate", "--kind", "born", "--probs=-0.1,1.1", "--n", "10", "--out", "x.seq"],
     ("--probs must be finite, non-negative and sum to 1, got [-0.1, 1.1]",)),
    (["generate", "--kind", "born", "--probs", "0.6,0.5", "--n", "10", "--out", "x.seq"],
     ("--probs must be finite, non-negative and sum to 1, got [0.6, 0.5]",)),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "nan,0.5,0.25,0.25",
      "--n", "10000", "--json", "h2.json"],
     ("--bias must be finite, non-negative and sum to 1, got [nan, 0.5, 0.25, 0.25]",)),
    (["hv", "audit2", "--model", "parity4.json", "--bias=-0.1,0.6,0.25,0.25",
      "--n", "10000", "--json", "h2.json"],
     ("--bias must be finite, non-negative and sum to 1, got [-0.1, 0.6, 0.25, 0.25]",)),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "0.6,0.5,0,0",
      "--n", "10000", "--json", "h2.json"],
     ("--bias must be finite, non-negative and sum to 1, got [0.6, 0.5, 0.0, 0.0]",)),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--sampler", "constant:7",
      "--json", "h1.json"],
     ("--sampler constant:7 emits state 7 outside the space of size 2 of the model",)),
    (["report", "--in", "a.json", "a.json"], ("--in names a.json more than once",)),
    (["report", "--in", "a.json", "./a.json"],
     ("--in names ./a.json more than once, also as a.json",)),
], ids=["hv-run-contract", "hv-audit2-contract", "born-nan", "repeated-setting",
        "nan-setting", "omega-negative-steps", "champernowne-base-40", "hv-run-bias-counter",
        "hv-audit1-bias-alternating", "hv-audit2-bias-os", "checkpoints-not-int",
        "checkpoints-empty-entry", "checkpoints-descending", "checkpoints-repeated",
        "fair-coin-with-kind",
        "fair-coin-with-probs", "probs-not-float", "pattern-not-int", "constant-symbol-outside-alphabet",
        "settings-not-float",
        "bias-not-float", "sampler-constant-no-colon", "sampler-constant-two-states",
        "sampler-constant-not-int", "sampler-file-no-path", "hv-model-empty-name",
        "ks-rays-empty-name", "born-negative", "born-sum-1.1", "bias-nan", "bias-negative",
        "bias-sum-1.1", "hv-audit1-constant-outside-space", "report-repeated-input",
        "report-input-spelled-twice"])
def test_bad_input_exits_1_with_one_error_line(argv, fragments, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert os.listdir() == []


@pytest.mark.parametrize("k,body,shown", [
    (2, "01\u00a001".encode(), "'\\xa0'"),
    (16, b"1\x1c2,3", "'\\x1c'"),
    (2, b"01\xff1", "'\\udcff'"),
], ids=["no-break-space", "file-separator", "non-utf8-byte"])
def test_non_ascii_sequence_text_exits_1_naming_the_file(k, body, shown, tmp_path, monkeypatch,
                                                         capsys):
    # seq/v1 is ASCII: these read as symbols, or failed without the file's name
    monkeypatch.chdir(tmp_path)
    with open("x.seq", "wb") as f:
        f.write(b"seq/v1 k=%d n=4\n%s\n" % (k, body))
    assert cli.dispatch(["komplexity", "--in", "x.seq"]) == cli.EXIT_USAGE
    _one_error_line(capsys, f"x.seq: bad base-{k} symbol text {shown}")


NON_ORTHOGONAL_RAYS = "rays/v1\nray x 1 0 0\nray y 0 1 0\nray d 1 1 0\nbasis x y d\n"
HV_RUN_M = ["hv", "run", "--model", "m.json", "--n", "8", "--out", "h.seq"]
HV_AUDIT2_M = ["hv", "audit2", "--model", "m.json", "--n", "10000", "--json", "a.json"]


def _hv_model(**fields) -> str:
    """The hv/v1 text of a fair-coin model with the given fields replaced."""
    return json.dumps({"schema": "hv/v1", "space": {"kind": "discrete", "size": 2},
                       "g": [0, 1], "mu": [0.5, 0.5], **fields})


@pytest.mark.parametrize("files,argv,fragments", [
    ({"bad.json": "not json"},
     ["hv", "run", "--model", "bad.json", "--n", "8", "--out", "h.seq"],
     ("bad.json: Expecting value",)),
    ({"nospace.json": json.dumps({"schema": "hv/v1", "g": [0, 1], "mu": [0.5, 0.5]})},
     ["hv", "run", "--model", "nospace.json", "--n", "8", "--out", "h.seq"],
     ("nospace.json: hv model has no field 'space'",)),
    ({"m.json": _hv_model(space={"size": 2})}, HV_RUN_M, ("m.json: space has no field 'kind'",)),
    ({"m.json": _hv_model(space={"kind": "discrete"})}, HV_RUN_M,
     ("m.json: space has no field 'size'",)),
    ({"strsize.json": json.dumps({"schema": "hv/v1",
                                  "space": {"kind": "discrete", "size": "2"},
                                  "g": [0, 1], "mu": [0.5, 0.5]})},
     ["hv", "run", "--model", "strsize.json", "--n", "8", "--out", "h.seq"],
     ("strsize.json: space size must be an integer, got '2'",)),
    ({"m.json": _hv_model(space={"kind": "discrete", "size": 2, "interval": ["a", "b", "c"]})},
     HV_RUN_M, ("m.json: space field 'interval' is not one of kind, size",)),
    ({"m.json": _hv_model(space={"kind": "interval_discretized", "size": 2, "interval": 5})},
     HV_RUN_M, ("m.json: space field 'interval' is not one of kind, size",)),
    ({"m.json": _hv_model(space={"kind": "interval_discretized", "size": 2,
                                 "interval": [1, -1]})},
     HV_RUN_M, ("m.json: space field 'interval' is not one of kind, size",)),
    ({"m.json": _hv_model(g=5)}, HV_RUN_M, ("m.json: g must be a list of outcomes, got 5",)),
    ({"m.json": _hv_model(space={"kind": "interval_discretized", "size": 2})}, HV_RUN_M,
     ("m.json: space kind must be 'discrete', got 'interval_discretized'",)),
    ({"m.json": _hv_model(space={"kind": "discrete", "size": 2, "units": "m"})}, HV_RUN_M,
     ("m.json: space field 'units' is not one of kind, size",)),
    ({"m.json": _hv_model(space=2)}, HV_RUN_M, ("m.json: space must be a JSON object, got 2",)),
    ({"m.json": _hv_model(g={"rule": "parity"})}, HV_RUN_M,
     ("m.json: g must be a list of outcomes, got {'rule': 'parity'}",)),
    ({"m.json": _hv_model(space={"kind": "discrete", "size": 0}, g=[], mu=[])}, HV_RUN_M,
     ("m.json: mu must be finite, non-negative and sum to 1, got []",)),
    # read as its own target, this model passed compatibility and fair_sampling
    ({"m.json": _hv_model(mu=[0.9, 0.1], targt=[0.5, 0.5])}, HV_AUDIT2_M,
     ("m.json: hv model field 'targt' is not one of schema, name, space, g, mu, target",)),
    ({"m.json": _hv_model(name=7)}, HV_RUN_M, ("m.json: name must be a string, got 7",)),
    ({"m.json": _hv_model(g=[0, 1.7])}, HV_RUN_M,
     ("m.json: g entries must be non-negative integers, got 1.7",)),
    ({"m.json": _hv_model(g=[0, True])}, HV_RUN_M,
     ("m.json: g entries must be non-negative integers, got True",)),
    ({"m.json": _hv_model(g=[0, -1])},
     ["hv", "audit2", "--model", "m.json", "--n", "10000", "--json", "a.json"],
     ("m.json: g entries must be non-negative integers, got -1",)),
    ({"m.json": _hv_model(mu=["0.5", "0.5"])}, HV_RUN_M,
     ("m.json: mu entries must be numbers, got '0.5'",)),
    ({"m.json": _hv_model(mu=0.5)}, HV_RUN_M, ("m.json: mu must be a list of numbers",)),
    ({"m.json": _hv_model(target=[0.5, None])}, HV_RUN_M,
     ("m.json: target entries must be numbers, got None",)),
    ({"m.json": _hv_model(mu=[math.nan, 1.0])}, HV_RUN_M,
     ("m.json: mu must be finite, non-negative and sum to 1, got [nan, 1.0]",)),
    ({"m.json": _hv_model(mu=[-0.5, 1.5])}, HV_RUN_M,
     ("m.json: mu must be finite, non-negative and sum to 1, got [-0.5, 1.5]",)),
    ({"m.json": _hv_model(mu=[0.6, 0.5])}, HV_RUN_M,
     ("m.json: mu must be finite, non-negative and sum to 1, got [0.6, 0.5]",)),
    ({"m.json": _hv_model(target=[math.nan, 1.0])}, HV_AUDIT2_M,
     ("m.json: target must be finite, non-negative and sum to 1, got [nan, 1.0]",)),
    ({"m.json": _hv_model(target=[2, -1])}, HV_AUDIT2_M,
     ("m.json: target must be finite, non-negative and sum to 1, got [2.0, -1.0]",)),
    ({"m.json": _hv_model(target=[0.6, 0.5])}, HV_AUDIT2_M,
     ("m.json: target must be finite, non-negative and sum to 1, got [0.6, 0.5]",)),
    ({"m.json": _hv_model(target=[0.3, 0.3])}, HV_AUDIT2_M,
     ("m.json: target must be finite, non-negative and sum to 1, got [0.3, 0.3]",)),
    ({"m.json": _hv_model(target=[])}, HV_AUDIT2_M,
     ("m.json: target must be finite, non-negative and sum to 1, got []",)),
    ({"m.json": _hv_model(space={"kind": "discrete", "size": True}, g=[0], mu=[1.0])},
     HV_RUN_M, ("m.json: space size must be an integer, got True",)),
    ({"c.json": "[0, 1"}, ["ks", "verify", "--rays", "peres33.rays", "--coloring", "c.json"],
     ("c.json: Expecting",)),
    ({"c.json": json.dumps({"colors": [1]})},
     ["ks", "verify", "--rays", "peres33.rays", "--coloring", "c.json"],
     ('c.json: JSON object has no "coloring" key',)),
    ({"c.json": json.dumps({"coloring": 5})},
     ["ks", "verify", "--rays", "peres33.rays", "--coloring", "c.json"],
     ("c.json: coloring must be a list of 0/1 marks, got int",)),
    ({"c.json": json.dumps({"coloring": "abc"})},
     ["ks", "verify", "--rays", "peres33.rays", "--coloring", "c.json"],
     ("c.json: coloring must be a list of 0/1 marks, got str",)),
    ({"r.json": "{"}, ["report", "--in", "r.json"], ("r.json: Expecting",)),
    ({"r.json": json.dumps({"schema": "hv-audit1/v1"})}, ["report", "--in", "r.json"],
     ("r.json: hv-audit1/v1 report field 'checkpoints' is missing",)),
    # a report written before reports listed their claims
    ({"r.json": json.dumps({"schema": "ks/v1", "status": "unsat"})},
     ["report", "--in", "r.json"], ("r.json: ks/v1 report field 'claims' is missing",)),
    ({"r.json": json.dumps({"schema": "ks/v1", "claims": {"valid": "pass"}})},
     ["report", "--in", "r.json"],
     ("r.json: ks/v1 report field 'claims' is malformed: expected a list, got a dict",)),
    ({"r.json": json.dumps({"schema": "randlab/v1",
                            "claims": [{"claim": "prefix_free", "why": "0 pairs"}]})},
     ["report", "--in", "r.json"], ("r.json: randlab/v1 report field 'status' is missing",)),
    ({"r.json": json.dumps({"schema": "bell/v1", "claims": [
        {"claim": "no_signaling", "status": "maybe", "why": "worst z 1.0"}]})},
     ["report", "--in", "r.json"],
     ("r.json: bell/v1 report field 'status' is malformed: unknown status 'maybe'",)),
    ({"x.seq": "seq/v1 k=2 n=4\n0120\n"}, ["analyze", "--in", "x.seq"],
     ("x.seq: symbol 2 outside alphabet [0, 2)",)),
    ({"x.seq": "seq/v1 k=10 n=4 k=2\n0110\n"}, ["analyze", "--in", "x.seq"],
     ("x.seq: seq/v1 header holds one k= and one n= and nothing else",
      "'seq/v1 k=10 n=4 k=2'")),
    ({"x.seq": "seq/v1 n=4 k=2 n=5\n0110\n"}, ["analyze", "--in", "x.seq"],
     ("x.seq: seq/v1 header holds one k= and one n= and nothing else",
      "'seq/v1 n=4 k=2 n=5'")),
    ({"x.seq": "seq/v1 k=2 n=4 bits=8 ordr=msb\n0110\n"}, ["analyze", "--in", "x.seq"],
     ("x.seq: seq/v1 header holds one k= and one n= and nothing else",
      "'seq/v1 k=2 n=4 bits=8 ordr=msb'")),
    ({"x.seq": "seq/v1 k=2 n=3\n010\n"},
     ["analyze", "--in", "x.seq", "--tests", "monkey", "--target", "0101"],
     ("--target 0101 has 4 symbols, more than the 3 of x.seq",)),
    ({"bad.rays": NON_ORTHOGONAL_RAYS},
     ["ks", "search", "--rays", "bad.rays", "--json", "s.json"],
     ("bad.rays: basis x y d: rays x and d are not orthogonal",)),
    # [1, 0, 0] marks one ray of the only basis: accepted if the set went unchecked
    ({"bad.rays": NON_ORTHOGONAL_RAYS, "c.json": "[1, 0, 0]"},
     ["ks", "verify", "--rays", "bad.rays", "--coloring", "c.json", "--json", "v.json"],
     ("bad.rays: basis x y d: rays x and d are not orthogonal",)),
    ({"short.rays": "rays/v1\nray a 1 0\n"}, ["ks", "search", "--rays", "short.rays"],
     ("short.rays: line 2: ray needs a name and 3 components",)),
    ({"dup.rays": "rays/v1\nray a 1 0 0\nray b 0 1 0\nray c -1 0 0\nbasis a b c\n"},
     ["ks", "search", "--rays", "dup.rays", "--json", "s.json"],
     ("dup.rays: basis a b c collapses under deduplication: rays a and c coincide",)),
    ({"redef.rays": "rays/v1\nray a 0 1 1\nray b 0 1 0\nray c 0 0 1\nray a 1 0 0\n"
                    "basis a b c\n"},
     ["ks", "search", "--rays", "redef.rays", "--json", "s.json"],
     ("redef.rays: line 5: ray 'a' is already defined on line 2",)),
    ({"pair.rays": "rays/v1\nray a 1 0 0\nray b 0 1 0\nbasis a b\n"},
     ["ks", "search", "--rays", "pair.rays"], ("pair.rays: line 4: basis needs 3 ray names",)),
    ({"typo.rays": "rays/v1\nray a 1 0 0\nbases a\n"},
     ["ks", "search", "--rays", "typo.rays"], ("typo.rays: line 3: unknown directive 'bases'",)),
    # the demo set's own coloring, as JSON booleans and with a float mark
    ({"c.json": json.dumps({"coloring": [True, False, False, False, False, True, False]})},
     ["ks", "verify", "--rays", "demo_colorable.rays", "--coloring", "c.json"],
     ("c.json: assignment must be total over {0,1}, found True",)),
    ({"c.json": "[1.0, 0, 0, 0, 0, 1, 0]"},
     ["ks", "verify", "--rays", "demo_colorable.rays", "--coloring", "c.json"],
     ("c.json: assignment must be total over {0,1}, found 1.0",)),
], ids=["hv-model-not-json", "hv-model-without-space", "hv-model-space-without-kind",
        "hv-model-space-without-size", "hv-model-string-size",
        "hv-model-interval-on-discrete", "hv-model-scalar-interval",
        "hv-model-reversed-interval", "hv-model-scalar-g", "hv-model-interval-kind",
        "hv-model-space-units", "hv-model-scalar-space",
        "hv-model-g-rule", "hv-model-no-states", "hv-model-misspelled-target",
        "hv-model-number-name",
        "hv-model-float-g", "hv-model-bool-g", "hv-model-negative-g", "hv-model-string-mu",
        "hv-model-scalar-mu", "hv-model-null-target", "hv-model-nan-mu",
        "hv-model-negative-mu", "hv-model-mu-sum-1.1", "hv-model-nan-target",
        "hv-model-negative-target", "hv-model-target-sum-1.1", "hv-model-target-sum-0.6",
        "hv-model-empty-target", "hv-model-bool-size",
        "ks-coloring-not-json", "ks-coloring-without-key", "ks-coloring-number",
        "ks-coloring-string",
        "report-input-not-json", "report-missing-field", "report-without-claims",
        "report-claims-not-a-list", "report-claim-without-status",
        "report-claim-unknown-status", "seq-bad-symbol", "seq-header-two-k",
        "seq-header-two-n", "seq-header-extra-fields", "monkey-target-past-input",
        "ks-search-non-orthogonal",
        "ks-verify-non-orthogonal", "ks-rays-short-line", "ks-rays-collapsing-basis",
        "ks-rays-redefined-name", "ks-rays-two-ray-basis", "ks-rays-unknown-directive",
        "ks-coloring-bools", "ks-coloring-float-mark"])
def test_bad_input_file_is_named(files, argv, fragments, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        with open(name, "w") as f:
            f.write(text)
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert sorted(os.listdir()) == sorted(files)


@pytest.mark.parametrize("extra,fragments", [
    (["--max-block", "0"], ("--max-block must be >= 1",)),
    (["--tests", "bogus"], ("unknown --tests ['bogus']",)),
    (["--tests", "borel,"], ("unknown --tests ['']",)),
    (["--tests", "blocks", "--max-block", "64"], ("block length 64: 2^64 codes overflow int64",)),
], ids=["max-block-0", "unknown-test", "empty-test-name", "blocks-past-int64"])
def test_vacuous_analyze_is_a_usage_error(extra, fragments, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", sq.SequenceSource("born", seed=1).prefix(400))
    assert cli.dispatch(["analyze", "--in", "x.seq", "--json", "a.json"] + extra) \
        == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert not os.path.exists("a.json")


@pytest.mark.parametrize("steps,max_len,search,blocked", [
    # at 2 steps only the 13-bit literal emitter finishes on "00"; the
    # 12-bit OUT0;OUT0;HALT branch stalls first, at 8 consumed bits, and
    # 391 more branches stall below 13 bits
    ("2", "13", {"value": 13, "kind": "upper_bound"}, 392),
    ("100", "13", {"value": 12, "kind": "exact"}, 0),
    ("2", "8", {"no_program_within": 8, "steps": 2, "unresolved_timeouts": 1}, 1),
], ids=["upper-bound", "exact", "no-program"])
def test_komplexity_names_the_timeouts_that_block_exact(steps, max_len, search, blocked,
                                                        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", bits("00"))
    assert cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len", max_len,
                         "--steps", steps, "--json", "k.json"]) == cli.EXIT_OK
    with open("k.json") as f:
        out = json.load(f)["exact_search"]
    blocking = out.pop("unresolved_bits_consumed")
    assert out == search
    assert len(blocking) == blocked and blocking == sorted(blocking)
    assert blocking[:1] == [8][:blocked] and all(c < 13 for c in blocking)
    exact = rl.exact_k_small(bits("00"), int(max_len), int(steps))
    assert tuple(blocking) == exact.unresolved_bits_consumed


# sha256 of k.json from komplexity --exact-max-len 16 --steps 10000, pinned
# while both calls still walked: "011" finds an exact 16 bits, and no
# program of at most 16 bits prints "10110"
@pytest.mark.parametrize("target,digest", [
    ("011", "183b5b060bee7904a85db37e9b4a9a0b4d3a2cdab00f51e8127406e54ab9d77f"),
    ("10110", "b0cf0fee39562b3e049464321c52503d0cd8648462cd4ad4e199ded2534ce352"),
])
def test_komplexity_walks_the_domain_once_per_query(target, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", bits(target))
    rl._exact_k_walk.cache_clear()
    walks = count_walks(monkeypatch)
    assert cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len", "16",
                         "--steps", "10000", "--json", "k.json"]) == cli.EXIT_OK
    assert walks == [(16, 10_000)]
    with open("k.json", "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == digest


def test_analyze_reads_its_input_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", sq.SequenceSource("born", seed=1).prefix(400))
    read = sq.read_sequence_file
    reads = []
    monkeypatch.setattr(sq, "read_sequence_file", lambda path: reads.append(path) or read(path))
    assert cli.dispatch(["analyze", "--in", "x.seq", "--tests", "borel,blocks,monkey",
                         "--max-block", "1", "--target", "01", "--json", "a.json"]) == cli.EXIT_OK
    assert reads == ["x.seq"]
    with open("a.json") as f:
        monkey = json.load(f)["tests"]["monkey"]
    sigma = read("x.seq").to_text()
    assert monkey["positions_head"] == [i for i in range(399) if sigma[i:i + 2] == "01"][:100]


GEN = ["--n", "4", "--out", "g.seq"]


@pytest.mark.parametrize("argv,message", [
    (["generate", "--kind", "periodic", "--base", "1", *GEN], "--base must be >= 2, got 1"),
    (["generate", "--kind", "champernowne", "--base", "1", *GEN],
     "--base must be in 2..36, got 1"),
    (["generate", "--kind", "os", "--base", "1", *GEN], "--base must be in 2..256, got 1"),
    (["generate", "--fair-coin", "--n", "-3", "--out", "g.seq"], "--n must be >= 0, got -3"),
    (["hv", "run", "--model", "fair_coin_counter.json", "--n", "-1", "--out", "h.seq"],
     "--n must be >= 0, got -1"),
    (["bell", "run", "--n", "0", "--out", "b.csv"], "--n must be >= 1, got 0"),
    (["komplexity", "--in", "x.seq", "--exact-max-len", "-2", "--json", "k.json"],
     "--exact-max-len must be in 0..24, got -2"),
    (["komplexity", "--in", "x.seq", "--exact-max-len", "30", "--json", "k.json"],
     "--exact-max-len must be in 0..24, got 30"),
    (["omega", "--max-len", "-1", "--json", "o.json"], "--max-len must be in 0..24, got -1"),
    (["omega", "--max-len", "30", "--json", "o.json"], "--max-len must be in 0..24, got 30"),
    (["analyze", "--in", "x.seq", "--tests", "monkey", "--target", "", "--json", "a.json"],
     "--target must be non-empty"),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--checkpoints", "-1",
      "--json", "h1.json"], "--checkpoints must be >= 0, got -1"),
    (["generate", "--kind", "os", "--base", "300", *GEN], "--base must be in 2..256, got 300"),
    (["generate", "--kind", "champernowne", "--base", "40", *GEN],
     "--base must be in 2..36, got 40"),
    (["hv", "audit2", "--model", "fair_coin_counter.json", "--n", "5", "--json", "h2.json"],
     "--n must be >= 10000, got 5"),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "0.5,0.5", "--json", "h2.json"],
     "--bias covers 2 states, space has 4"),
    (["generate", "--kind", "periodic", "--pattern", "0,5", "--base", "3", *GEN],
     "--pattern must be in 0..2, got 5"),
], ids=["periodic-base-1", "champernowne-base-1", "os-base-1", "generate-negative-n",
        "hv-run-negative-n", "bell-run-zero-n", "exact-max-len-negative",
        "exact-max-len-above-cap", "max-len-negative", "max-len-above-cap", "empty-target",
        "negative-checkpoint", "os-base-300", "champernowne-base-40", "audit2-n-5",
        "bias-short-of-the-space", "pattern-symbol-outside-base"])
def test_an_option_out_of_range_is_named(argv, message, tmp_path, monkeypatch, capsys):
    """The message names the option typed, one that the subcommand's parser defines."""
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", bits("0110"))
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir() == ["x.seq"]
    subcommand = argv[:2] if argv[0] in ("hv", "bell", "ks") else argv[:1]
    assert message.split()[0] in _subcommand_options(*subcommand).values()


def test_a_run_that_cannot_allocate_exits_1(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hv, "scenario_one_audit", no_memory)
    assert cli.dispatch(["hv", "audit1", "--model", "fair_coin_counter.json",
                         "--checkpoints", "100,100000000000", "--json", "h1.json"]) == \
        cli.EXIT_USAGE
    _one_error_line(capsys, "Unable to allocate 745. GiB")
    assert os.listdir() == []


@pytest.mark.parametrize("functional,status,why", [
    ("default", "skipped", "default: no trials at settings pair (0.0, 30.0)"),
    ("1,0,60", "pass", "functional custom: empirical "),
], ids=["default", "the-pair-alone"])
def test_bell_analyze_on_one_settings_pair_skips_what_it_has_no_data_for(
        functional, status, why, tmp_path, monkeypatch):
    """A quantum run cut to its trials at settings (0, 60) has no
    equal-setting trial, gives each no-signaling table one setting of the
    other wing, and leaves the default functional's other pairs empty: each
    of those claims is skipped, with the report written, never passed."""
    monkeypatch.chdir(tmp_path)
    tr = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 60_000, seed=4)
    at = (tr.a_idx == 0) & (tr.b_idx == 2)
    bell.save_trials_csv("q.csv", bell.TrialSet(tr.settings, tr.a_idx[at], tr.b_idx[at],
                                                tr.alpha[at], tr.beta[at], None, tr.metadata))
    assert cli.dispatch(["bell", "analyze", "--in", "q.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_OK
    with open("b.json") as f:
        report = json.load(f)
    assert report["n_trials"] >= bell.MIN_TRIALS_PER_PAIR
    claims = {c["claim"]: (c["status"], c["why"]) for c in report["claims"]}
    assert claims.keys() == {"functional", "perfect_correlation", "no_signaling"}
    assert claims["functional"][0] == status and claims["functional"][1].startswith(why)
    assert claims["perfect_correlation"] == ("skipped", "no equal-setting trials in a quantum run")
    assert claims["no_signaling"] == ("skipped", "no-signaling marginal independence skipped: "
                                      "worst z alice skipped, bob skipped, threshold 4.0")


@pytest.mark.parametrize("n,functional,claim,why", [
    (500, "default", "free_choice", "free-choice check skipped: need >= 1000 trials, got 500"),
    (1200, "0,0,30", "functional", "custom: all coefficients zero"),
], ids=["short-hv-run", "all-zero-functional"])
def test_bell_analyze_skips_a_claim_it_cannot_judge(n, functional, claim, why, tmp_path,
                                                    monkeypatch):
    """The report is still written, with the claim skipped and its why."""
    monkeypatch.chdir(tmp_path)
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    bell.save_trials_csv("hv.csv", bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, n, seed=7,
                                                      hv_ensemble=[(1.0, strat)]))
    assert cli.dispatch(["bell", "analyze", "--in", "hv.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_OK
    with open("b.json") as f:
        claims = json.load(f)["claims"]
    assert {"claim": claim, "status": "skipped", "why": why} in claims


@pytest.mark.parametrize("functional", ["1,0,0", "1,0,0;0,0,30"],
                         ids=["alone", "with-zero-term"])
def test_bell_analyze_one_angle_functional(functional, tmp_path, monkeypatch):
    """P(L != R | 0, 0) names one angle; a local model can make it 1."""
    monkeypatch.chdir(tmp_path)
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    bell.save_trials_csv("hv.csv", bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 1200, seed=7,
                                                      hv_ensemble=[(1.0, strat)]))
    assert cli.dispatch(["bell", "analyze", "--in", "hv.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_OK
    with open("b.json") as f:
        assert json.load(f)["functional"]["local_bound"]["value"] == 1.0


def _skip_path_csv(model: str, n: int, pair=None) -> None:
    """Save b.csv: a one-strategy hv run at seed 7 or a quantum run at seed
    4, of n trials, cut to the trials at settings indices pair if given."""
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    tr = bell.run_bipartite(model, bell.DEFAULT_SETTINGS, n, seed=7 if model == "hv" else 4,
                            hv_ensemble=[(1.0, strat)] if model == "hv" else None)
    if pair:
        at = (tr.a_idx == pair[0]) & (tr.b_idx == pair[1])
        tr = bell.TrialSet(tr.settings, tr.a_idx[at], tr.b_idx[at], tr.alpha[at], tr.beta[at],
                           None, tr.metadata)
    bell.save_trials_csv("b.csv", tr)


@pytest.mark.parametrize("csv,functional,entries,json_sha256,stdout_sha256", [
    (("hv", 1200), "0,0,30",
     {"functional": {"name": "custom", "skipped": "all coefficients zero"},
      "no_signaling": {"skipped": "need >= 1000 trials per settings pair; "
                                  "smallest observed count 121"}},
     # with "degenerate" as functional.skipped, the report's sha256 was 5af40de2...
     "f725cd3db872cb63759d7a1ef4a6bd1565602ba3bb02c1c7b86c4a9ff4274aae",
     "60de27eb2804a7f6c4d290a852c913c211e0c61aa67d04bc332dba029642f47c"),
    (("quantum", 60_000, (0, 2)), "default",
     {"functional": {"name": "default", "skipped": "no trials at settings pair (0.0, 30.0)"}},
     "419275970c320733cfbe62207858a475e842e1332de8b08d90f2f3f2c4ddb8c4",
     "ef3671ade9b78fd09926e28487b19a5789371bd55f628ffb4f2074dfa7d1d203"),
    (("quantum", 5000), "default",
     {"no_signaling": {"skipped": "need >= 1000 trials per settings pair; "
                                  "smallest observed count 519"}},
     "0a3104d21fdd6b9c12414cc8f0a4d916c8b15dd7e579bb5ca2644d278d48fa48",
     "1ef353bd97a4d74a56186e7e11ffd4e7110cd3fd0c307423215dc5207ab23d7f"),
    (("hv", 500), "default",
     {"no_signaling": {"skipped": "need >= 1000 trials per settings pair; "
                                  "smallest observed count 46"},
      "free_choice": {"skipped": "need >= 1000 trials, got 500"}},
     "cd1f0e7440f58c1e13049011ef78e342df3cb880fdb64549cfc46db1d4526cb9",
     "4bb36aef5c6eef4abab72c90c468378912cb7ab7ff39b5f4dccb562ac7bf36e9"),
], ids=["all-zero-functional", "pair-without-trials", "few-trials-per-pair", "short-hv-run"])
def test_golden_bell_analyze_skip_paths(csv, functional, entries, json_sha256, stdout_sha256,
                                        tmp_path, monkeypatch, capsys):
    """Each way bell analyze skips a check, frozen: the skipped entries the
    report holds, the sha256 of the whole report and of the claim lines."""
    monkeypatch.chdir(tmp_path)
    _skip_path_csv(*csv)
    assert cli.dispatch(["bell", "analyze", "--in", "b.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_OK
    with open("b.json") as f:
        report = json.load(f)
    assert {key: report[key] for key in entries} == entries
    assert cli._sha256("b.json") == json_sha256
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256


def test_golden_quiet_audit1_and_its_report_csv(tmp_path, monkeypatch, capsys):
    """An audit whose flag stays quiet (margins 15 and -29, above -64),
    frozen: the sha256 of its report and of its claim lines, and the margin
    rows that report --csv writes from it."""
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["hv", "audit1", "--model", "fair_coin_counter.json", "--sampler",
                         "alternating", "--checkpoints", "8,64", "--json", "a.json"]) \
        == cli.EXIT_OK
    assert cli._sha256("a.json") == \
        "ac59aeb71179e2ecde7647b27dff436a7a8539a4468ba2173f49b1f7b819deb6"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "37462e4b708a6a96fc348c9222ddbb5ee1fdd1686f1dad8bb04b05df32c2ab85"
    assert cli.dispatch(["report", "--in", "a.json", "--csv", "r.csv"]) == cli.EXIT_OK
    with open("r.csv") as f:
        assert f.read().splitlines() == ["source,series,x,y", "a.json,margin,8,15",
                                         "a.json,margin,64,-29"]


def test_komplexity_rejects_negative_steps(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", bits("0110"))
    assert cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len", "4",
                         "--steps", "-1", "--json", "k.json"]) == cli.EXIT_USAGE
    _one_error_line(capsys, "--steps must be >= 0, got -1")
    assert not os.path.exists("k.json")


@pytest.mark.parametrize("functional,fragments", [
    ("1,0,45", ("angle 45.0 is not among the settings [0.0, 30.0, 60.0]",)),
    ("x", ("--functional term 'x'",)),
    ("1,0,30;1,0", ("--functional term '1,0'",)),
    ("1,nan,0", ("angle nan is not among the settings [0.0, 30.0, 60.0]",)),
], ids=["missing-angle", "not-a-term", "short-term", "non-finite-angle"])
def test_bell_analyze_names_the_bad_functional(functional, fragments, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_row(lambda row: row)
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert not os.path.exists("b.json")


@pytest.mark.parametrize("sidecar,fragments", [
    ("[1, 2]", ("q.csv.meta.json: expected a JSON object, got a list",)),
    ('{"settings": 5}', ("q.csv.meta.json: settings must be a list of numbers, got 5",)),
    ('{"settings": [0, "30", 60]}', ("q.csv.meta.json: settings must be a list of numbers",)),
    ("{bad", ("q.csv.meta.json: Expecting property name",)),
    ('{"settings": [0, 0]}', ("q.csv.meta.json: settings repeat an angle: [0.0, 0.0]",)),
    # usable settings that the data's angles miss: the CSV is named
    ('{"settings": [0, 45]}', ("q.csv: a_deg 30.0 on data row 3 is not among [0.0, 45.0]",)),
], ids=["list", "scalar-settings", "string-angle", "not-json", "repeated-angle",
        "angles-outside-settings"])
def test_bell_analyze_names_a_malformed_sidecar(sidecar, fragments, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["bell", "run", "--n", "3000", "--out", "q.csv"]) == cli.EXIT_OK
    with open("q.csv.meta.json", "w") as f:
        f.write(sidecar)
    capsys.readouterr()
    assert cli.dispatch(["bell", "analyze", "--in", "q.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert not os.path.exists("b.json")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """Tiny inputs for every leaf subcommand; c.json is the report of a ks
    search, whose coloring ks verify reads."""
    d = tmp_path_factory.mktemp("contract")
    sq.write_sequence_file(str(d / "x.seq"),
                           sq.SequenceSource("born", seed=1).prefix(400))
    trials = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 3000, seed=2)
    bell.save_trials_csv(str(d / "q.csv"), trials)
    assert cli.dispatch(["ks", "search", "--rays", "demo_colorable.rays",
                         "--json", str(d / "c.json")]) == cli.EXIT_OK
    return d


LEAF_COMMANDS = {
    "generate": ["generate", "--fair-coin", "--n", "64", "--out", "g.seq"],
    "analyze": ["analyze", "--in", "x.seq", "--max-block", "1", "--json", "a.json"],
    "komplexity": ["komplexity", "--in", "x.seq", "--json", "k.json"],
    "omega": ["omega", "--max-len", "6", "--steps", "100", "--json", "o.json"],
    "hv-run": ["hv", "run", "--model", "fair_coin_counter.json", "--n", "16",
               "--out", "h.seq"],
    "hv-audit1": ["hv", "audit1", "--model", "fair_coin_counter.json",
                  "--checkpoints", "16,64", "--json", "h1.json"],
    "hv-audit2": ["hv", "audit2", "--model", "parity4.json", "--n", "10000",
                  "--json", "h2.json"],
    "bell-run": ["bell", "run", "--n", "600", "--out", "b.csv"],
    "bell-analyze": ["bell", "analyze", "--in", "q.csv", "--json", "b.json"],
    "ks-search": ["ks", "search", "--rays", "demo_colorable.rays", "--json", "s.json"],
    "ks-verify": ["ks", "verify", "--rays", "demo_colorable.rays", "--coloring", "c.json"],
    "report": ["report", "--in", "c.json"],
}


# The top-level keys of every JSON report a leaf command above writes.
REPORT_KEYS = {
    "analyze": {"a.json": {"alphabet", "claims", "input", "n", "schema", "tests"}},
    "komplexity": {"k.json": {"claims", "k_upper", "kind", "margin", "method", "n", "schema",
                              "witness_bits"}},
    "omega": {"o.json": {"budget", "claims", "omega_lower_bound", "prefix_free_violations",
                         "programs_found", "schema"}},
    "hv-audit1": {"h1.json": {"checkpoints", "claims", "description_bits",
                              "flag_threshold_bits", "incompatible_with_1_randomness", "model",
                              "note", "pushforward_matches_target", "sampler", "schema"}},
    "hv-audit2": {"h2.json": {"cell_checks", "claims", "fair", "model", "n", "outcome_checks",
                              "pushforward_matches_target", "randomness_origin", "sampler",
                              "schema"}},
    "bell-run": {"b.csv.meta.json": {"model", "n_trials", "seed", "settings"}},
    "bell-analyze": {"b.json": {"claims", "equal_setting_mismatches", "functional", "input",
                                "model", "n_trials", "no_signaling", "schema"}},
    "ks-search": {"s.json": {"bases", "claims", "coloring", "max_depth", "nodes", "rays",
                             "schema", "status", "verified"}},
}


@pytest.mark.parametrize("name", LEAF_COMMANDS)
def test_every_leaf_subcommand_exits_0_with_a_manifest(name, contract_dir, monkeypatch):
    monkeypatch.chdir(contract_dir)
    manifest_path = f"{name}.manifest.json"
    assert cli.dispatch(LEAF_COMMANDS[name] + ["--manifest", manifest_path]) == cli.EXIT_OK
    with open(manifest_path) as f:
        manifest = json.load(f)
    assert manifest["schema"] == "manifest/v1"
    assert manifest["subcommand"] == LEAF_COMMANDS[name][0]
    assert not {"func", "threads"} & set(manifest["parameters"])
    for path, keys in REPORT_KEYS.get(name, {}).items():
        with open(path) as f:
            assert set(json.load(f)) == keys, path


@pytest.mark.parametrize("argv", [
    ["omega", "--max-len", "4", "--threads", "2"],
    ["generate", "--fair-coin", "--n", "8", "--out", "g.seq", "--json", "g.json"],
    ["hv", "run", "--model", "fair_coin_counter.json", "--n", "8", "--out", "h.seq",
     "--json", "h.json"],
    ["bell", "run", "--n", "8", "--out", "b.csv", "--json", "b.json"],
    ["generate", "--kind", "constant", "--n", "8", "--out", "g.seq"],
    ["generate", "--symbol", "1", "--n", "8", "--out", "g.seq"],
    ["hv", "audit1", "--model", "fair_coin_counter.json", "--seed", "3", "--json", "h1.json"],
], ids=["threads", "generate-json", "hv-run-json", "bell-run-json", "generate-kind-constant",
        "generate-symbol", "hv-audit1-seed"])
def test_removed_options_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert os.listdir() == []


@pytest.mark.parametrize("argv,fragment", [
    (["generate", "--kind", "born", "--probs", "0.5,0.5", "--base", "7", "--n", "4",
      "--out", "g.seq"], "--kind born does not read --base"),
    (["generate", "--kind", "os", "--pattern", "9", "--n", "4", "--out", "g.seq"],
     "--kind os does not read --pattern"),
    (["generate", "--kind", "champernowne", "--seed", "3", "--n", "4", "--out", "g.seq"],
     "--kind champernowne does not read --seed"),
    (["generate", "--kind", "born", "--start-at-one", "--n", "4", "--out", "g.seq"],
     "--kind born does not read --start-at-one"),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "counter", "--seed", "3",
      "--n", "8", "--out", "h.seq"], "--seed applies only to --sampler prng, not 'counter'"),
    (["hv", "audit2", "--model", "parity4.json", "--sampler", "alternating", "--seed", "3",
      "--n", "10000", "--json", "h2.json"],
     "--seed applies only to --sampler prng, not 'alternating'"),
    (["analyze", "--in", "x.seq", "--target", "01", "--json", "a.json"],
     "--target applies only to --tests monkey, not 'borel,blocks'"),
    (["analyze", "--in", "x.seq", "--tests", "monkey", "--max-block", "2", "--json", "a.json"],
     "--max-block applies only to --tests borel or blocks, not 'monkey'"),
    (["komplexity", "--in", "x.seq", "--steps", "100", "--json", "k.json"],
     "--steps applies only with --exact-max-len"),
], ids=["generate-born-base", "generate-os-pattern", "generate-champernowne-seed",
        "generate-born-start-at-one", "hv-run-seed-counter", "hv-audit2-seed-alternating",
        "analyze-target-without-monkey", "analyze-max-block-with-only-monkey",
        "komplexity-steps-without-exact-max-len"])
def test_an_option_the_run_does_not_read_exits_1_naming_it(argv, fragment, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", bits("0110100110010110"))
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    _one_error_line(capsys, fragment)
    assert os.listdir() == ["x.seq"]


def test_an_empty_bias_is_a_bad_entry(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["hv", "audit2", "--model", "parity4.json", "--bias", "",
                         "--n", "10000", "--json", "h2.json"]) == cli.EXIT_USAGE
    _one_error_line(capsys, "--bias: bad entry ''")
    assert os.listdir() == []


def _subcommand_options(*names: str) -> dict[str, str]:
    """dest -> option string of each option of the subcommand that names
    spell, such as ("generate",) or ("hv", "audit2")."""
    parser = cli.build_parser()
    for name in names:
        parser = next(a for a in parser._actions if a.dest.endswith("command")).choices[name]
    return {a.dest: a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest != "help"}


# a value each source option can take, whichever kind reads it
SOURCE_OPTION_VALUES = {"probs": ["0.5,0.5"], "pattern": ["1"], "seed": ["3"],
                        "start_at_one": []}


def test_generate_options_are_the_source_keywords(tmp_path, monkeypatch, capsys):
    """Every generate option but six spells a SOURCE_KEYWORDS keyword, and
    every keyword but a file's path has one; each kind runs with the options
    that spell its own keywords and refuses the others, naming them."""
    monkeypatch.chdir(tmp_path)
    spelled = {dest: option for dest, option in _subcommand_options("generate").items()
               if option not in ("--kind", "--fair-coin", "--base", "--n", "--out", "--manifest")}
    assert set(spelled) == {key for kw in sq.SOURCE_KEYWORDS.values() for key in kw} - {"path"}
    for kind in cli.GENERATE_KINDS:
        for dest, option in spelled.items():
            code = cli.dispatch(["generate", "--kind", kind, option, *SOURCE_OPTION_VALUES[dest],
                                 "--n", "4", "--out", "g.seq"])
            err = capsys.readouterr().err
            if dest in sq.SOURCE_KEYWORDS[kind]:
                assert code == cli.EXIT_OK, (kind, option, err)
            else:
                assert code == cli.EXIT_USAGE and \
                    err == f"error: --kind {kind} does not read {option}\n", (kind, option)


def test_report_rejects_a_json_list(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("l.json", "w") as f:
        json.dump([1, 0], f)
    assert cli.dispatch(["report", "--in", "l.json"]) == cli.EXIT_USAGE
    assert "l.json: expected a JSON object" in capsys.readouterr().err


def test_manifest_keys_bundled_inputs_by_given_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["ks", "search", "--rays", "peres33.rays", "--json", "s.json"]) \
        == cli.EXIT_OK
    with open("s.json.manifest.json") as f:
        inputs = json.load(f)["inputs"]
    assert list(inputs) == ["peres33.rays"]
    assert inputs["peres33.rays"] == cli._sha256(bundled_path("peres33.rays"))


def test_manifest_names_the_trace_of_a_file_sampler(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("trace.seq", sq.SymbolString.from_text("01101001", 2))
    assert cli.dispatch(["hv", "run", "--model", "fair_coin_counter.json", "--n", "8",
                         "--sampler", "file:trace.seq", "--out", "h.seq"]) == cli.EXIT_OK
    with open("h.seq.manifest.json") as f:
        inputs = json.load(f)["inputs"]
    assert inputs == {"fair_coin_counter.json": cli._sha256(bundled_path("fair_coin_counter.json")),
                      "trace.seq": cli._sha256("trace.seq")}


def test_data_dir_override(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path / "data"))
    assert cli.data_dir() == str(tmp_path / "data")
    assert cli.dispatch(["ks", "search", "--rays", "peres33.rays"]) == cli.EXIT_USAGE
    _one_error_line(capsys, "no such file 'peres33.rays'", str(tmp_path / "data"))
    with open(bundled_path("demo_colorable.rays")) as f:
        (tmp_path / "data" / "mine.rays").write_text(f.read())
    assert cli.dispatch(["ks", "search", "--rays", "mine.rays"]) == cli.EXIT_OK


@pytest.mark.parametrize("header,field", [
    ("seq/v1 n=4", "k="),
    ("seq/v1 k2 n=4", "k="),
    ("seq/v1 k=x n=4", "k="),
    ("seq/v1 k=2", "n="),
    ("seq/v1 k=2 n=-4", "n="),
])
def test_komplexity_names_the_bad_header_field(header, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("x.seq", "w") as f:
        f.write(header + "\n0110\n")
    assert cli.dispatch(["komplexity", "--in", "x.seq"]) == cli.EXIT_USAGE
    assert f"header field {field}" in capsys.readouterr().err


# frozen: exit codes of these runs and the sha256 of each seq/v1 file, JSON report
# and Bell trials CSV (with its sidecar) they write, computed with the earlier
# tuple-backed SymbolString and row-by-row csv.writer; the JSON reports were
# pinned again when they gained their claims lists (GOLDEN_SHA256_BEFORE_CLAIMS)
GOLDEN_RUNS = [
    (["generate", "--fair-coin", "--n", "5000", "--seed", "7", "--out", "coin.seq"], 0),
    (["analyze", "--in", "coin.seq", "--tests", "borel,blocks,monkey", "--target", "0110",
      "--json", "coin.json"], 0),
    (["komplexity", "--in", "coin.seq", "--json", "coin.k.json"], 0),
    (["generate", "--kind", "born", "--probs", ",".join(["0.0625"] * 16), "--n", "30000",
      "--seed", "7", "--out", "born16.seq"], 0),
    (["analyze", "--in", "born16.seq", "--tests", "borel,blocks,monkey", "--max-block", "2",
      "--target", "1", "--json", "born16.json"], 0),
    (["generate", "--kind", "champernowne", "--base", "10", "--n", "3000",
      "--out", "champ10.seq"], 0),
    (["bell", "run", "--n", "3000", "--seed", "7", "--out", "q.csv"], 0),
    # komplexity's generator witnesses (Champernowne, periodic, constant), frozen
    # with the per-bit emit and the KMP period test
    (["generate", "--kind", "champernowne", "--n", "5000", "--out", "champ2.seq"], 0),
    (["komplexity", "--in", "champ2.seq", "--json", "champ2.k.json"], 0),
    (["generate", "--kind", "periodic", "--pattern", "0,1,1,0,1", "--n", "4998",
      "--out", "periodic.seq"], 0),
    (["komplexity", "--in", "periodic.seq", "--json", "periodic.k.json"], 0),
    (["generate", "--kind", "periodic", "--pattern", "1", "--n", "5000",
      "--out", "constant.seq"], 0),
    (["komplexity", "--in", "constant.seq", "--json", "constant.k.json"], 0),
    # hv runs and audit reports, frozen with the per-kind Sampler factories and
    # the report dataclasses
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "alternating",
      "--n", "1000", "--out", "hv_alt.seq"], 0),
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "file:coin.seq",
      "--n", "5000", "--out", "hv_replay.seq"], 0),
    (["hv", "audit1", "--model", "fair_coin_counter.json", "--sampler", "counter",
      "--json", "hv_counter.json"], 0),
    (["hv", "audit1", "--model", "parity4.json", "--sampler", "constant:1",
      "--checkpoints", "100,1000", "--json", "hv_constant.json"], 0),
    (["hv", "audit2", "--model", "parity4.json", "--seed", "7", "--n", "20000",
      "--json", "hv_prng.json"], 0),
    (["hv", "audit2", "--model", "fair_coin_counter.json", "--bias", "0.6,0.4",
      "--seed", "7", "--n", "20000", "--json", "hv_bias.json"], 2),
    # bell analyze reports and the report built from them, frozen with the
    # TestReport and FunctionalEstimate classes
    (["bell", "analyze", "--in", "q.csv", "--json", "q.json"], 0),
    (["bell", "run", "--model", "signaling", "--n", "20000", "--seed", "7",
      "--out", "sig.csv"], 0),
    (["bell", "analyze", "--in", "sig.csv", "--json", "sig.json"], 2),
    (["bell", "run", "--settings", "0,45,22.5,-22.5", "--n", "20000", "--seed", "7",
      "--out", "chsh.csv"], 0),
    (["bell", "analyze", "--in", "chsh.csv", "--functional", "chsh", "--json", "chsh.json"], 0),
    (["report", "--in", "q.json", "sig.json", "chsh.json", "--json", "report.json",
      "--csv", "report.csv"], 0),
    # omega and the KS search and verifier, frozen with the recursive search
    (["omega", "--max-len", "12", "--steps", "1000", "--json", "omega.json"], 0),
    (["ks", "search", "--rays", "peres33.rays", "--json", "peres.json"], 0),
    (["ks", "search", "--rays", "demo_colorable.rays", "--json", "demo.json"], 0),
    (["ks", "verify", "--rays", "demo_colorable.rays", "--coloring", "demo.json",
      "--json", "demo_verify.json"], 0),
]
# the sha256 of each GOLDEN_RUNS command's stdout, in order; the judging
# runs' entries were pinned again when dispatch began printing their claims
GOLDEN_STDOUT_SHA256 = [
    "a1652e63f63c004a1e69197085d70bf6bda708aed58925a415ae9397cfc587ba",
    "ea62a84ec488c4ed5532cba0ee5a4780fb7c1bbe5526ec9116a86087703ff097",
    "ea03126a6f052a12666f09ee8fb4773f044ae309ca8a27a6666257cefcbd4967",
    "bfa29014aae39b97d5563110b8b64243e2b7c9cb897c54a27cef497614797a47",
    "31b5570edb763286722a8dd416ae3043fb0491d5a0b16a8cc58ee70554b42fbe",
    "7024332a8d4e54aad482ab7c9457c02ded990b820006be595725315735649b57",
    "b59af008cc1e1fa23f7e5fc1f27a7a78eae7826bcad26f2c4276ce7984f344d0",
    "7a4cee6438dfa9f56b3258cc8c086ee852e342b563d169c2feadeed0160ce6a4",
    "81be6a5d101202bac9498679cacdab8def3fb6e30bebbb6c5f5553d42b34110c",
    "2d167922cca2bd7fe45523e301a36d159717889669516c31bbadab496b2431ef",
    "3dfa0baa8f69e1bc7b431dabba6cd1db706cc94378776fa7bae7342074d01c60",
    "9c9690eb87fbafbbd6ad980ec3858268cbf3120151525dcc2afaf41f32bfea1a",
    "758afdb3e8ddb4d5fda3b48ed5ff282749f96c7937f18d8e21d3aa64924a1cb9",
    "78f22ff227d420003a8067062eea4ae3ed35fd06960cffee60bd6b98850508d3",
    "b6d7be244efa790a97506514fafb33f1b51e18b5ffb6bfd0dd4018284aa9fc1d",
    "4acae8e298b69ce5097e320da36d42ae930d2131c2f026cb8920a148fc2b9cfa",
    "12b95fe03a761abf08a181f49949ad94e5d98e5e0f2f62df01f6a19d4011b524",
    "fc93a7194f86e4d3f50885cad175904af9a864e80ee0352d7a56b26712327692",
    "4570181539917f55bc433d2482df198f1b3adab77114067f34ad7c6109b06af9",
    "f501beed11cd68de4a26bbda40b9acd3fd846d37e71aa5f2b7a9ce066bad5954",
    "f29e64535a02bca0eacc9cc5796afe0d25ed167b392f7a524171d2d601d9e9da",
    "6cb5d384547710227a867dee5dfc0536f3d8da018db11b08e82ce72e7ec2325b",
    "286c33d0a2b9f1be319a5feaae2d4e9cc19f4e2404a872296ef9a31348910c7e",
    "98dd730d1646f405b6373b8c4c40edd4c02097887805eca2a491533de25190ba",
    # report lists its inputs' claims: the one stdout that moved with them
    "58f00ea42e3ec9bcdee8495ad86cad1a6aeded92ab821eadccf4a8fd8e61437c",
    "91ea61462eea7a99b3793538f1765434771d2c54d8f592fbcbdeb89579f73099",
    "ee4e93a29fd2c985fb0004768cd10a5807249ce1fbc74293a111635bb0084f0c",
    "ad646612a99f8df1e9ba7972e90ab8b8d8aa141966f70fa309530418530f3d69",
    "58ba7a4fa964535e45924806cdeb614d1a47bde04b49ad5fcc5c81a25e791aac",
]
GOLDEN_SHA256 = {
    "born16.json": "e0017fa2f321c4e18c7e72a50019a8e61f198497cee9e2f48aea648997d8ef02",
    "born16.seq": "9705adc20edff79281aa252d61bbf368f31a0e3e200fbf36792cc87e6d83d5d0",
    "champ10.seq": "55d18fe1a1a7d741a6a8f34be02535c27ff7cc110dd7b32166f1e13de170ecb2",
    "champ2.k.json": "24680d3d7cdea1f3dadfa352b54ea0dbd81f122bb6e9feb1e730c59266c62466",
    "champ2.seq": "8c9d5dc7aade4b5d9cd6ac8b8da231c9247812a910aaa3059cb51eb728aa44f4",
    "chsh.csv": "c8f7f58603d0e92706e5a5d5a2df26a76687279d8b9737ab50609475e8957107",
    "chsh.csv.meta.json": "db9bb411ec5f8b11fe4fc97e46cb8670f0f0963e2295972d54c13164dfe23066",
    "chsh.json": "3d8b74d5645c8a5e982d1adb3ed3a5e64a59fea2a9e3dbc6ec86de03bc727e8a",
    "coin.json": "ea0a348df2af22ddca9ef6a0a6090ac9dc51a6dfa5f98348165053674ddbdb24",
    "coin.k.json": "f94383bb00852e171654539ba97436adcd4dbb9e46ab40d69dc0206153fd3211",
    "coin.seq": "8ec6a5dc387fbf73a3f26bbd7943bd97f3aaf7ca992d4267b275e8e7cb19eee9",
    "constant.k.json": "f0b5c9929dc0ad7cdb885fc9de486ce1e0dfc5a66a375c27cd9446d8f5a11096",
    "constant.seq": "0f57a37c663826561f92896455b57203774b3d239f080616f5b8e82c3d5aa683",
    "demo.json": "eec3745e9bb161842a7c9830680e49c7fcb50e4b5751d10795956c99ebafb434",
    "demo_verify.json": "5e711c9cb77a06e1464e2642920e51b7964e9ef3611afa1b7bde7402bfcf576c",
    "hv_alt.seq": "8f6c2bd55fdc6c616150f2664ee1d16a13191c7953d9b8f4d96343209b0db1e1",
    "hv_bias.json": "be236340dcd04889d95da4d4fe8bed5839f65bf7946723b97f494d9f43b250e8",
    "hv_constant.json": "297a6b061c99f69b68eacc08f4981c9a93d7f5524db023e2c072fce270b766af",
    "hv_counter.json": "f8c8209bf98779ac88bd5309c0fe8c3fbd2c3de0e72492b30beb845d00705a33",
    "hv_prng.json": "c1e81be4e0ef39c2c38af549759eeb47b49df9ab746bd78e73fa8303ffa5f2b1",
    "hv_replay.seq": "8ec6a5dc387fbf73a3f26bbd7943bd97f3aaf7ca992d4267b275e8e7cb19eee9",
    "omega.json": "75d4b062c73c2038d7a40a319f5e86c35c132a2c4d9fd8645de8fcf315b58d5d",
    "peres.json": "15989e1974fdc17786bc16a191c968f3de745bc094661b358d6baae662dcff20",
    "periodic.k.json": "568defa2af9ed910d3575a4475e56ca0c182db8a5144f6399966e2c8fb0783d1",
    "periodic.seq": "4605d4caf5c917968193cea2a6ba738db73b731bf376d091f46f1466be1e55c4",
    "q.csv": "d0e632dbcec639368d6408c641bb3bd192acd78af271a9bfef536dc1ae9d5a12",
    "q.csv.meta.json": "52ce58ddfc1f60641b60173285c9c5e3b263ef111d5663fe9ab511e0c0651fee",
    "q.json": "4eb5b54a6aeab1f155e99e309cda90a05ae8cbf5e7460e279bbc60c5216e44ba",
    "report.csv": "16ce1fb9477afd0bd1cedbe68c02567e507bbf1e3276f8fbad99847fb49c65ad",
    "report.json": "f392a33af8003b1d1af8693b8d57c0e34a899253df5b75a46bc8d10713979032",
    "sig.csv": "7765f3647bad8d75559ecdb531c62ec6bb35383bd92a525a6de63909e5ddeda9",
    "sig.csv.meta.json": "51e051b554ef593c7f65e0dec71abc95adc18b434e83c9d997c365159c4960c7",
    "sig.json": "7b4bb9419a27aebfc36d14b0f91b8ba0b7a88748d9b80b9b5dee526aca5b5521",
}
# the sha256 of each golden JSON report at the parent of the claims lists, which
# must still be its digest with "claims" popped and the rest re-dumped as
# cli._write_json writes it: the claims are all that moved.  report.json is
# pinned whole only, since its text lists the claims.
GOLDEN_SHA256_BEFORE_CLAIMS = {
    "born16.json": "3f0985cdb4f5f0e91c61030b49ff5b25cd4c9c8ca342f231204900aad6cfc8f5",
    "champ2.k.json": "d15f89d6ac69ac59cf1a83f08f98644889355c1323b344532a912a0142fd880f",
    "chsh.json": "325fa214b02e514c4298e54501cb3e7a83b640c13cfecdf176e9b5627482eb42",
    "coin.json": "0d2dd3ccd5a8ddd13c724242b7ac7f564fa25697a2028198fad9c18131e65b77",
    "coin.k.json": "893fc4049712c236a58fc856fcf33a2a4a98bb2800422669af624fc66dad0285",
    "constant.k.json": "50a8a4a54a9fe85a581262ba355933bb84e5cd1b781b9834e98805027b93113a",
    "hv_bias.json": "1a4624ccabe6d18ded75a837aaf1b79953018fa60740fecb35c5754f0fc42ec8",
    "hv_constant.json": "beb35a7b22bc9b48a2a8b31ee8e9910d382b58cef2930e033bafcb72347bd875",
    "hv_counter.json": "28f197be379498cc37946f6f688a70eba72283885bcc6c22ccbd4a39b25c0ded",
    "hv_prng.json": "f53190c4c7b7b058f68e96ddfb8d3a50460bf81da78df73d08f7fb636460cbb7",
    "periodic.k.json": "41932ba3fe23c93a1da6d94e2c8ae95258e1de19e0966430b95bd61421d4003f",
    "q.json": "f8aa1f41063b82d115679d5f55a6229dd0ebffc566fa6083aff3294637b322bb",
    "sig.json": "9ea4f7283f0adced8ace38e1526d3754946420a80b8c274c998a4905e2ed2a26",
}


def golden_outputs(capsys) -> tuple[list[int], list[str], dict[str, str]]:
    """Exit codes and stdout sha256 of GOLDEN_RUNS, and the sha256 of each
    .seq, .json and .csv they write."""
    codes, stdouts = [], []
    for argv, _ in GOLDEN_RUNS:
        codes.append(cli.dispatch(argv))
        stdouts.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return codes, stdouts, {name: cli._sha256(name) for name in sorted(os.listdir())
                            if name.endswith((".seq", ".json", ".csv"))
                            and "manifest" not in name}


def _sha256_without_claims(path: str, out_dir) -> str:
    """The sha256 of the JSON report at path with "claims" popped, re-dumped
    into out_dir by cli._write_json."""
    with open(path) as f:
        report = json.load(f)
    del report["claims"]
    out = os.path.join(out_dir, os.path.basename(path))
    cli._write_json(out, report)
    return cli._sha256(out)


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    codes, stdouts, digests = golden_outputs(capsys)
    assert codes == [code for _, code in GOLDEN_RUNS]
    assert stdouts == GOLDEN_STDOUT_SHA256
    assert digests == GOLDEN_SHA256
    (tmp_path / "popped").mkdir()
    assert {name: _sha256_without_claims(name, tmp_path / "popped")
            for name in GOLDEN_SHA256_BEFORE_CLAIMS} == GOLDEN_SHA256_BEFORE_CLAIMS


def test_golden_free_choice_report(tmp_path, monkeypatch):
    """Only a library-made CSV carries lambda_id, so the free-choice path of
    bell analyze is frozen here: a two-strategy hv ensemble, 20,000 trials."""
    monkeypatch.chdir(tmp_path)
    ensemble = [(0.5, bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))),
                (0.5, bell.LocalDeterministicStrategy((1, 1, 0), (1, 1, 0)))]
    trials = bell.run_bipartite("hv", bell.DEFAULT_SETTINGS, 20000, seed=7,
                                hv_ensemble=ensemble)
    bell.save_trials_csv("hv.csv", trials)
    assert cli.dispatch(["bell", "analyze", "--in", "hv.csv", "--json", "hv.json"]) \
        == cli.EXIT_OK
    assert cli._sha256("hv.json") == \
        "dbac13d346dc5694209eacbf62fb57f2394a2e71ba324b0d59eb994d1d9dc9f3"
    (tmp_path / "popped").mkdir()
    # the digest before the report listed its claims
    assert _sha256_without_claims("hv.json", tmp_path / "popped") == \
        "69fcc34bb397daf77ebadcbd5724b604731a99ef49621607b9c1a337313c6575"

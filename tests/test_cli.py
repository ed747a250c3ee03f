import json
import os

import pytest

from indlab import bell, cli, hv, ks
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq
from indlab.errors import CapacityError, CommutationError, ContractViolationError


def test_komplexity_rejects_exact_max_len_above_cap(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        pytest.fail("enumerated programs despite the length cap")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tm, "enumerate_domain", no_search)
    sq.write_sequence_file("x.seq", sq.bits("0110"))
    code = cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len",
                         str(rl.EXACT_SEARCH_MAX_LEN + 1), "--json", "k.json"])
    assert code == cli.EXIT_USAGE
    assert not os.path.exists("k.json")


def _hv_csv_with_first_row(edit) -> None:
    """Save a 1,200-trial hv run as run.csv with its first data row passed through edit."""
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    trials = bell.run_bipartite(
        "hv", bell.DEFAULT_SETTINGS, 1200, seed=6, hv_ensemble=[(1.0, strat)]
    )
    bell.save_trials_csv("run.csv", trials)
    with open("run.csv") as f:
        lines = f.read().splitlines()
    lines[1] = edit(lines[1])
    with open("run.csv", "w") as f:
        f.write("\n".join(lines) + "\n")


def _hv_csv_with_first_lambda(lambda_id: str) -> None:
    """Save a 1,200-trial hv run as run.csv with the first row's lambda_id replaced."""
    _hv_csv_with_first_row(lambda row: row.rsplit(",", 1)[0] + "," + lambda_id)


def test_bell_analyze_rejects_partly_blank_lambda_column(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_lambda("")
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    assert "lambda_id is blank on 1 of 1200 rows" in capsys.readouterr().err
    assert not os.path.exists("b.json")


def test_bell_analyze_rejects_negative_lambda_id(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_lambda("-1")
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    assert "lambda_id must be >= 0, found -1" in capsys.readouterr().err
    assert not os.path.exists("b.json")


@pytest.mark.parametrize("row,messages", [
    ("0.0,30.0", ("run.csv: ", "row 1")),  # the column count is numpy's wording
    ("0.0,30.0,2,0,0", ("alpha 2 on data row 1 is not among [0, 1]",)),
    ("0.0,30.0,0,-1,0", ("beta -1 on data row 1 is not among [0, 1]",)),
    ("45.0,30.0,0,1,0", ("a_deg 45.0 on data row 1 is not among [0.0, 30.0, 60.0]",)),
], ids=["short-row", "alpha-2", "beta-minus-1", "angle-not-in-settings"])
def test_bell_analyze_rejects_malformed_rows(row, messages, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_row(lambda _: row)
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
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
    hv.save_model("big.json", hv.HVModel(hv.HVSpace("discrete", 300), g, (1 / 300,) * 300))
    assert cli.dispatch(["hv", "audit2", "--model", "big.json", "--sampler", "os",
                         "--n", "10000", "--json", "a.json"]) == cli.EXIT_USAGE
    assert "up to 256 symbols" in capsys.readouterr().err


def _one_error_line(capsys, *fragments) -> None:
    """stderr holds exactly one line, an `error:` line holding every fragment."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert all(f in lines[0] for f in fragments), lines


@pytest.mark.parametrize("argv,fragments", [
    (["hv", "run", "--model", "fair_coin_counter.json", "--sampler", "constant:5",
      "--n", "8", "--out", "h.seq"], ("state 5 outside the space of size 2",)),
    (["hv", "audit2", "--model", "parity4.json", "--bias", "0.5,0.5", "--n", "10000",
      "--json", "a.json"], ("covers 2 states, space has 4",)),
    (["generate", "--kind", "born", "--probs", "0.5,nan", "--n", "10", "--out", "x.seq"],
     ("probabilities must be finite",)),
    (["bell", "run", "--settings", "0,0,30", "--n", "600", "--out", "b.csv"],
     ("repeat an angle",)),
    (["bell", "run", "--settings", "0,nan,30", "--n", "600", "--out", "b.csv"],
     ("must be finite angles",)),
    (["omega", "--steps", "-3", "--json", "o.json"], ("max_steps must be >= 0",)),
], ids=["hv-run-contract", "hv-audit2-contract", "born-nan", "repeated-setting",
        "nan-setting", "omega-negative-steps"])
def test_bad_input_exits_1_with_one_error_line(argv, fragments, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert os.listdir() == []


def test_library_errors_are_value_errors():
    assert all(issubclass(e, ValueError)
               for e in (ContractViolationError, CapacityError, CommutationError))


@pytest.mark.parametrize("extra,fragments", [
    (["--max-block", "0"], ("--max-block must be >= 1",)),
    (["--tests", "bogus"], ("unknown --tests ['bogus']",)),
    (["--tests", "borel,"], ("unknown --tests ['']",)),
], ids=["max-block-0", "unknown-test", "empty-test-name"])
def test_vacuous_analyze_is_a_usage_error(extra, fragments, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", sq.SequenceSource("born_sampler", seed=1).prefix(400))
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
    sq.write_sequence_file("x.seq", sq.bits("00"))
    assert cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len", max_len,
                         "--steps", steps, "--json", "k.json"]) == cli.EXIT_OK
    with open("k.json") as f:
        out = json.load(f)["exact_search"]
    blocking = out.pop("unresolved_bits_consumed")
    assert out == search
    assert len(blocking) == blocked and blocking == sorted(blocking)
    assert blocking[:1] == [8][:blocked] and all(c < 13 for c in blocking)
    exact = rl.exact_k_small(sq.bits("00"), int(max_len), int(steps))
    assert tuple(blocking) == exact.unresolved_bits_consumed


def test_analyze_reads_its_input_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", sq.SequenceSource("born_sampler", seed=1).prefix(400))
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


def test_komplexity_rejects_negative_steps(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sq.write_sequence_file("x.seq", sq.bits("0110"))
    assert cli.dispatch(["komplexity", "--in", "x.seq", "--exact-max-len", "4",
                         "--steps", "-1", "--json", "k.json"]) == cli.EXIT_USAGE
    _one_error_line(capsys, "max_steps must be >= 0")
    assert not os.path.exists("k.json")


@pytest.mark.parametrize("functional,fragments", [
    ("1,0,45", ("angle 45.0 is not among the settings [0.0, 30.0, 60.0]",)),
    ("x", ("--functional term 'x'",)),
    ("1,0,30;1,0", ("--functional term '1,0'",)),
], ids=["missing-angle", "not-a-term", "short-term"])
def test_bell_analyze_names_the_bad_functional(functional, fragments, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    _hv_csv_with_first_row(lambda row: row)
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--functional", functional,
                         "--json", "b.json"]) == cli.EXIT_USAGE
    _one_error_line(capsys, *fragments)
    assert not os.path.exists("b.json")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """Tiny inputs for every leaf subcommand."""
    d = tmp_path_factory.mktemp("contract")
    sq.write_sequence_file(str(d / "x.seq"),
                           sq.SequenceSource("born_sampler", seed=1).prefix(400))
    trials = bell.run_bipartite("quantum", bell.DEFAULT_SETTINGS, 3000, seed=2)
    bell.save_trials_csv(str(d / "q.csv"), trials)
    coloring = ks.search_coloring(ks.bundled_problem("demo_colorable")).assignment
    with open(d / "c.json", "w") as f:
        json.dump({"schema": "ks/v1", "coloring": list(coloring)}, f)
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
    "analyze": {"a.json": {"alphabet", "input", "n", "schema", "tests"}},
    "komplexity": {"k.json": {"k_upper", "kind", "margin", "method", "n", "schema",
                              "witness_bits"}},
    "omega": {"o.json": {"budget", "omega_lower_bound", "prefix_free_violations",
                         "programs_found", "schema"}},
    "hv-audit1": {"h1.json": {"checkpoints", "description_bits", "flag_threshold_bits",
                              "incompatible_with_1_randomness", "model", "note",
                              "pushforward_matches_target", "sampler", "schema"}},
    "hv-audit2": {"h2.json": {"cell_checks", "fair", "model", "n", "outcome_checks",
                              "pushforward_matches_target", "randomness_origin", "sampler",
                              "schema"}},
    "bell-run": {"b.csv.meta.json": {"model", "n_trials", "seed", "settings",
                                     "superdeterministic"}},
    "bell-analyze": {"b.json": {"equal_setting_mismatches", "functional", "input", "model",
                                "n_trials", "no_signaling", "schema"}},
    "ks-search": {"s.json": {"bases", "coloring", "max_depth", "nodes", "rays", "schema",
                             "status", "verified"}},
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
], ids=["threads", "generate-json", "hv-run-json", "bell-run-json"])
def test_removed_options_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert os.listdir() == []


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
    assert inputs["peres33.rays"] == cli._sha256(os.path.join(ks.data_dir(), "peres33.rays"))


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
# tuple-backed SymbolString and row-by-row csv.writer
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
    (["generate", "--kind", "constant", "--symbol", "1", "--n", "5000",
      "--out", "constant.seq"], 0),
    (["komplexity", "--in", "constant.seq", "--json", "constant.k.json"], 0),
]
GOLDEN_SHA256 = {
    "born16.json": "3f0985cdb4f5f0e91c61030b49ff5b25cd4c9c8ca342f231204900aad6cfc8f5",
    "born16.seq": "9705adc20edff79281aa252d61bbf368f31a0e3e200fbf36792cc87e6d83d5d0",
    "champ10.seq": "55d18fe1a1a7d741a6a8f34be02535c27ff7cc110dd7b32166f1e13de170ecb2",
    "champ2.k.json": "d15f89d6ac69ac59cf1a83f08f98644889355c1323b344532a912a0142fd880f",
    "champ2.seq": "8c9d5dc7aade4b5d9cd6ac8b8da231c9247812a910aaa3059cb51eb728aa44f4",
    "coin.json": "0d2dd3ccd5a8ddd13c724242b7ac7f564fa25697a2028198fad9c18131e65b77",
    "coin.k.json": "893fc4049712c236a58fc856fcf33a2a4a98bb2800422669af624fc66dad0285",
    "coin.seq": "8ec6a5dc387fbf73a3f26bbd7943bd97f3aaf7ca992d4267b275e8e7cb19eee9",
    "constant.k.json": "50a8a4a54a9fe85a581262ba355933bb84e5cd1b781b9834e98805027b93113a",
    "constant.seq": "0f57a37c663826561f92896455b57203774b3d239f080616f5b8e82c3d5aa683",
    "periodic.k.json": "41932ba3fe23c93a1da6d94e2c8ae95258e1de19e0966430b95bd61421d4003f",
    "periodic.seq": "4605d4caf5c917968193cea2a6ba738db73b731bf376d091f46f1466be1e55c4",
    "q.csv": "d0e632dbcec639368d6408c641bb3bd192acd78af271a9bfef536dc1ae9d5a12",
    "q.csv.meta.json": "aa5fbf298a662b6547c08be20b1ec42f69f031acd1012b877d1b8a96ddbe528b",
}


def golden_outputs() -> tuple[list[int], dict[str, str]]:
    """Exit codes of GOLDEN_RUNS and the sha256 of each .seq, .json and .csv they write."""
    codes = [cli.dispatch(argv) for argv, _ in GOLDEN_RUNS]
    return codes, {name: cli._sha256(name) for name in sorted(os.listdir())
                   if name.endswith((".seq", ".json", ".csv")) and "manifest" not in name}


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes, digests = golden_outputs()
    assert codes == [code for _, code in GOLDEN_RUNS]
    assert digests == GOLDEN_SHA256

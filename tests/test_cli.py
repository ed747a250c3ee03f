import os

import pytest

from indlab import bell, cli
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq


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


def test_bell_analyze_rejects_partly_blank_lambda_column(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    strat = bell.LocalDeterministicStrategy((0, 1, 0), (0, 1, 0))
    trials = bell.run_bipartite(
        "hv", bell.DEFAULT_SETTINGS, 1200, seed=6, hv_ensemble=[(1.0, strat)]
    )
    bell.save_trials_csv("run.csv", trials)
    with open("run.csv") as f:
        lines = f.read().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ","
    with open("run.csv", "w") as f:
        f.write("\n".join(lines) + "\n")
    assert cli.dispatch(["bell", "analyze", "--in", "run.csv", "--json", "b.json"]) \
        == cli.EXIT_USAGE
    assert "lambda_id is blank on 1 of 1200 rows" in capsys.readouterr().err
    assert not os.path.exists("b.json")

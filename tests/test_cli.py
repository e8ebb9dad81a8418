import json
import warnings

import numpy as np
import pytest

from errexp.cli import load_model, main

EXAMPLE1 = "models/example1.json"

BERN = {
    "name": "bern",
    "u_alphabet": ["0", "1"],
    "v_alphabet": ["*"],
    "p_uv": [["0.5"], ["0.5"]],
    "q_uv": [["0.2"], ["0.8"]],
    "channel": {
        "input_alphabet": ["0", "1"],
        "output_alphabet": ["0", "1"],
        "rows": [["0.65", "0.35"], ["0.35", "0.65"]],
    },
}


@pytest.fixture
def bern_model(tmp_path):
    path = tmp_path / "bern.json"
    path.write_text(json.dumps(BERN))
    return str(path)


def read_csv(path):
    comments, rows = [], []
    header = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestLoadModel:
    def test_example1_parses(self):
        model = load_model(EXAMPLE1)
        assert model.name == "example1"
        assert model.p_uv.probs.tolist() == [[0.25, 0.25], [0.25, 0.25]]
        assert model.channel.rows[0].tolist() == [0.65, 0.35]
        assert len(model.digest) == 64

    def test_bad_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["region", str(bad), "--kind", "direct"]) == 2

    @pytest.mark.parametrize("model, command, options", [
        (dict(BERN, channel={"input_alphabet": ["0", "1"],
                             "output_alphabet": ["0", "1"]}),
         "region", ["--kind", "direct"]),
        ([BERN], "region", ["--kind", "direct"]),
        (BERN, "region", ["--kind", "direct", "--points", "0"]),
        (BERN, "region", ["--kind", "direct", "--kappa-grid", "abc"]),
        (BERN, "simulate", ["--n-grid", "10,x"]),
        (BERN, "region", ["--kind", "direct", "--kappa-grid=nan"]),
        (BERN, "region", ["--kind", "direct", "--kappa-grid=0.01,inf"]),
        (BERN, "bounds", ["--scheme", "shtcc", "--kappa-grid=-inf"]),
        (BERN, "region", ["--kind", "direct", "--kappa-grid=-0.1"]),
        (BERN, "bounds", ["--scheme", "shtcc", "--kappa-grid=0.01,-0.01"]),
        (BERN, "simulate", ["--n-grid", "10", "--trials", "10", "--seed=-1"]),
    ], ids=["channel-without-rows", "json-list", "zero-points",
            "bad-kappa-grid", "bad-n-grid", "nan-kappa-grid",
            "inf-kappa-grid", "minus-inf-kappa-grid", "negative-kappa-grid",
            "negative-bounds-kappa-grid", "negative-seed"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, model, command,
                                     options):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main([command, str(path), "--out", str(tmp_path / "x.csv")]
                    + options) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, options", [
        ("simulate", ["--grid", "3"]),
        ("simulate", ["--points", "4"]),
        ("simulate", ["--kappa-grid", "0.01"]),
        ("region", ["--kind", "direct", "--seed", "1"]),
        ("bounds", ["--scheme", "shtcc", "--seed", "1"]),
    ], ids=["simulate-grid", "simulate-points", "simulate-kappa-grid",
            "region-seed", "bounds-seed"])
    def test_flag_the_subcommand_does_not_read_exits_2(self, bern_model,
                                                       capsys, command,
                                                       options):
        with pytest.raises(SystemExit) as exc:
            main([command, bern_model] + options)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pair_law_parses_and_drives_the_channel_curve(self, tmp_path):
        law = [["0.1", "0.4"], ["0.2", "0.3"]]
        path = tmp_path / "law.json"
        path.write_text(json.dumps(dict(BERN, pair_law=law)))
        model = load_model(str(path))
        assert model.pair_law.probs.tolist() == [[0.1, 0.4], [0.2, 0.3]]
        assert model.pair_law.alphabet == ("0", "1")
        outs = []
        for spec in (dict(BERN, pair_law=law), BERN):
            path.write_text(json.dumps(spec))
            out = tmp_path / "channel.csv"
            assert main(["region", str(path), "--kind", "channel",
                         "--points", "3", "--out", str(out)]) == 0
            outs.append(read_csv(out)[2])
        assert outs[0] != outs[1]  # the law, not the best pair, was used

    @pytest.mark.parametrize("spec, message", [
        (dict(BERN, pair_law=[["0.1", "0.4"], ["0.2", "0.4"]]),
         "error: pair_law: entries must be a joint PMF within 1e-9\n"),
        (dict({k: v for k, v in BERN.items() if k != "channel"},
              pair_law=[["0.25", "0.25"], ["0.25", "0.25"]]),
         "error: pair_law given without a channel\n"),
    ], ids=["not-a-pmf", "no-channel"])
    def test_bad_pair_law_exits_2(self, tmp_path, capsys, spec, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        assert main(["region", str(path), "--kind", "direct",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == message

    def test_non_stochastic_rejected(self, tmp_path):
        spec = dict(BERN, p_uv=[["0.5"], ["0.6"]])
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(spec))
        assert main(["region", str(path), "--kind", "direct"]) == 2


class TestRegion:
    def test_direct_curve(self, bern_model, tmp_path):
        out = tmp_path / "direct.csv"
        assert main(["region", bern_model, "--kind", "direct",
                     "--points", "8", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == ["kappa_alpha", "kappa_beta", "theta0", "theta1",
                          "bound"]
        assert any("subcommand=region" in c for c in comments)
        assert any("sha256=" in c for c in comments)
        kas = [float(r[0]) for r in rows]
        kbs = [float(r[1]) for r in rows]
        assert kas == sorted(kas)
        assert all(b <= a + 1e-12 for a, b in zip(kbs, kbs[1:]))
        assert all(r[4] == "direct" for r in rows)

    def test_channel_curve(self, bern_model, tmp_path):
        out = tmp_path / "channel.csv"
        assert main(["region", bern_model, "--kind", "channel",
                     "--points", "5", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5 and all(r[4] == "channel" for r in rows)

    def test_rht_curve(self, bern_model, tmp_path):
        out = tmp_path / "rht.csv"
        assert main(["region", bern_model, "--kind", "rht", "--points", "3",
                     "--grid", "6", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 3 and all(r[4] == "rht" for r in rows)

    def test_non_ac_source_is_domain_error(self, tmp_path):
        # the anti-diagonal Q of the bundled model has zeros where P does not
        assert main(["region", EXAMPLE1, "--kind", "direct",
                     "--out", str(tmp_path / "x.csv")]) == 3


class TestBounds:
    def test_jhtcc_uncoded_at_zero(self, tmp_path):
        out = tmp_path / "jhtcc.csv"
        assert main(["bounds", EXAMPLE1, "--scheme", "jhtcc-uncoded",
                     "--kappa-grid", "0", "--grid", "6",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["kappa_alpha", "bound", "value", "feasible",
                          "achiever_digest"]
        assert rows[0][1] == "jhtcc_uncoded"
        assert float(rows[0][2]) == pytest.approx(0.0471553, abs=1e-4)

    def test_both_emits_crossover(self, tmp_path):
        out = tmp_path / "both.csv"
        assert main(["bounds", EXAMPLE1, "--scheme", "both",
                     "--kappa-grid", "0,0.005", "--grid", "6",
                     "--out", str(out)]) == 0
        comments, _, rows = read_csv(out)
        cross = [c for c in comments if c.startswith("# crossover")]
        assert len(cross) == 1
        value = float(cross[0].split("=")[1])
        assert 0.0 < value < 0.005
        names = {r[1] for r in rows}
        assert names == {"shtcc_ex0_upper", "jhtcc_uncoded"}


    def test_shtcc_on_disjoint_rows_channel(self, tmp_path):
        """Designs that mix two inputs of disjoint rows have theta_l = +inf;
        they are skipped, with no NaN theta grid and no warning."""
        with open(EXAMPLE1) as fh:
            model = json.load(fh)
        model["channel"].update(output_alphabet=["0", "1", "2"],
                                rows=[["0.5", "0.5", "0"], ["0", "0", "1"]])
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "shtcc.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bounds", str(path), "--scheme", "shtcc",
                         "--kappa-grid", "0.01", "--grid", "3",
                         "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        _, _, rows = read_csv(out)
        assert rows and not any("nan" in cell.lower()
                                for row in rows for cell in row)

    def test_jhtcc_uncoded_ternary_pin(self, tmp_path):
        """Byte-for-byte output of the uncoded bound on the general 3-input
        model bench/models/rht3.json (|V| = 1, |Y| = 3), as computed by the
        scalar KL-ball projection before the sweeps were stacked."""
        out = tmp_path / "rht3.csv"
        assert main(["bounds", "bench/models/rht3.json", "--scheme",
                     "jhtcc-uncoded", "--grid", "4", "--kappa-grid",
                     "0.01,0.03,0.06", "--out", str(out)]) == 0
        assert out.read_text() == (
            "# errexp 0.1.0 subcommand=bounds\n"
            "# model=rht3 sha256=a1c42b50b84108e33ee319b04b46d09eadf74948aeceeea"
            "4612eec3a1adb2dbf\n"
            "# params grid=4,kappa_grid=0.01,0.03,0.06,points=25,"
            "scheme=jhtcc-uncoded\n"
            "kappa_alpha,bound,value,feasible,achiever_digest\n"
            "0.01,jhtcc_uncoded,0.0305635264,1,eae6dcd84196\n"
            "0.03,jhtcc_uncoded,0.0110852574,1,eae6dcd84196\n"
            "0.06,jhtcc_uncoded,0.0013438974,1,eae6dcd84196\n")

class TestSimulate:
    def test_deterministic_byte_identical(self, bern_model, tmp_path):
        args = ["simulate", bern_model, "--n-grid", "40,80", "--trials",
                "2000", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_block(self, bern_model, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", bern_model, "--n-grid", "40,80", "--trials",
                     "2000", "--seed", "5", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == ["n", "alpha_hat", "beta_hat", "alpha_errors",
                          "beta_errors"]
        assert any(c.startswith("# analytic zeta0=") for c in comments)
        assert sum(c.startswith("# fit") for c in comments) == 2

    def test_json_mirror(self, bern_model, tmp_path):
        out = tmp_path / "sim.csv"
        mirror = tmp_path / "sim.json"
        assert main(["simulate", bern_model, "--n-grid", "40,80", "--trials",
                     "2000", "--seed", "5", "--out", str(out),
                     "--json", str(mirror)]) == 0
        payload = json.loads(mirror.read_text())
        assert [row["n"] for row in payload["rows"]] == [40, 80]

    @pytest.mark.parametrize("option", ["--theta0", "--theta1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2_before_drawing(
            self, bern_model, monkeypatch, capsys, option, value):
        def no_draws(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr("errexp.cli.simulate_rht", no_draws)
        assert main(["simulate", bern_model, "--n-grid", "40", "--trials",
                     "2000", f"{option}={value}"]) == 2
        assert f"{option}: must be finite" in capsys.readouterr().err

    def test_threshold_outside_interval_exits_3_before_drawing(
            self, bern_model, monkeypatch, capsys):
        def no_draws(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr("errexp.cli.simulate_rht", no_draws)
        assert main(["simulate", bern_model, "--n-grid", "40", "--trials",
                     "2000", "--theta1", "5"]) == 3
        assert "outside the admissible interval" in capsys.readouterr().err

    @pytest.mark.parametrize("theta0", ["5", "-5"])
    def test_direct_theta0_outside_interval_exits_3_before_drawing(
            self, tmp_path, monkeypatch, capsys, theta0):
        # Bern(.5) against Bern(.2): the LLR interval is about (-0.223, 0.193)
        def no_draws(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr("errexp.cli.simulate_direct", no_draws)
        path = tmp_path / "direct.json"
        path.write_text(json.dumps({k: v for k, v in BERN.items()
                                    if k != "channel"}))
        assert main(["simulate", str(path), "--n-grid", "40", "--trials",
                     "2000", f"--theta0={theta0}"]) == 3
        assert "outside the admissible interval" in capsys.readouterr().err

    def test_zero_trials_usage_error(self, bern_model, tmp_path):
        assert main(["simulate", bern_model, "--trials", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_failed_fit_exits_nonzero_but_emits(self, tmp_path):
        spec = {k: v for k, v in BERN.items() if k != "channel"}
        spec["q_uv"] = spec["p_uv"]
        path = tmp_path / "same.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "same.csv"
        assert main(["simulate", str(path), "--n-grid", "20,40", "--trials",
                     "500", "--out", str(out)]) == 4
        comments, _, rows = read_csv(out)
        assert len(rows) == 2
        assert any("fit beta failed" in c for c in comments)

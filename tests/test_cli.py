import json
import warnings

import pytest

import errexp.cli
from errexp import (BracketError, ConvergenceError, DomainError, ErrexpError,
                    EstimationError, InputError)
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
NO_CHANNEL = {k: v for k, v in BERN.items() if k != "channel"}


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
        (BERN, "simulate", ["--n-grid", "10", "--trials", "0"]),
        (dict(BERN, u_alphabet=5), "region", ["--kind", "direct"]),
        (dict(BERN, u_alphabet=[["0"], ["1"]]), "region", ["--kind", "direct"]),
        (dict(BERN, channel=dict(BERN["channel"], input_alphabet=3)),
         "region", ["--kind", "direct"]),
        (NO_CHANNEL, "region", ["--kind", "channel"]),
        (NO_CHANNEL, "region", ["--kind", "rht", "--kappa-grid", "0.01"]),
        (NO_CHANNEL, "bounds", ["--scheme", "jhtcc-uncoded"]),
        (dict(BERN, p_uv=[["half"], ["0.5"]]), "region", ["--kind", "direct"]),
        (dict(BERN, p_uv=[]), "region", ["--kind", "direct"]),
        (dict(BERN, channel=BERN["channel"]["rows"]),
         "region", ["--kind", "direct"]),
        (dict(BERN, channel=dict(BERN["channel"],
                                 rows=[["0.6", "0.6"], ["0.35", "0.65"]])),
         "region", ["--kind", "direct"]),
        (None, "region", ["--kind", "direct"]),
        (BERN, "bounds", ["--scheme", "both", "--grid", "0"]),
        (BERN, "bounds", ["--scheme", "jhtcc-uncoded", "--grid", "0"]),
        (NO_CHANNEL, "simulate", ["--n-grid", "10", "--trials", "10",
                                  "--theta1", "0"]),
    ], ids=["channel-without-rows", "json-list", "zero-points",
            "bad-kappa-grid", "bad-n-grid", "nan-kappa-grid",
            "inf-kappa-grid", "minus-inf-kappa-grid", "negative-kappa-grid",
            "negative-bounds-kappa-grid", "negative-seed", "zero-trials",
            "int-alphabet",
            "nested-alphabet", "int-channel-alphabet",
            "channel-region-without-channel", "rht-region-without-channel",
            "bounds-without-channel", "non-decimal-probability",
            "non-matrix-p_uv", "channel-not-an-object",
            "non-stochastic-channel", "unreadable-path", "both-grid-0",
            "jhtcc-uncoded-grid-0", "simulate-theta1-without-channel"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, model, command,
                                     options):
        path = tmp_path / "model.json"
        if model is not None:  # None: no file at the path
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

    def test_channel_curve_rejects_a_kappa_grid(self, bern_model, tmp_path,
                                                capsys):
        # the curve sweeps theta over --points; a kappa_alpha grid would be
        # recorded in the manifest but never used
        out = tmp_path / "channel.csv"
        assert main(["region", bern_model, "--kind", "channel",
                     "--kappa-grid", "0.01,0.02", "--points", "3",
                     "--out", str(out)]) == 2
        assert "--kappa-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_rht_curve(self, bern_model, tmp_path):
        out = tmp_path / "rht.csv"
        assert main(["region", bern_model, "--kind", "rht", "--points", "3",
                     "--grid", "6", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 3 and all(r[4] == "rht" for r in rows)

    @pytest.mark.parametrize("kind", ["direct", "rht"])
    def test_last_default_point_is_not_negative(self, kind, tmp_path):
        """The last default point sits just below D(Q||P), where rounding
        put kappa_beta at -1.11e-16; it is clamped to 0 and every other
        row keeps its bytes."""
        spec = dict(BERN, u_alphabet=["0", "1", "2"],
                    p_uv=[["0.6"], ["0.3"], ["0.1"]],
                    q_uv=[["0.2"], ["0.3"], ["0.5"]],
                    channel={"input_alphabet": ["0", "1", "2"],
                             "output_alphabet": ["0", "1"],
                             "rows": [["0.4", "0.6"]] * 3})
        path, out = tmp_path / "flat.json", tmp_path / "out.csv"
        path.write_text(json.dumps(spec))
        assert main(["region", str(path), "--kind", kind,
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        betas = [r[1] for r in rows]
        assert len(rows) == 25 and rows[-1][:2] == ["0.584996498", "0"]
        if kind == "direct":
            assert all(float(b) > 0 for b in betas[:-1])
            assert betas[-2] == "0.00023322668"
        else:  # the identical rows carry nothing: 0 on every row
            assert betas == ["0"] * 25

    def test_non_ac_source_is_domain_error(self, tmp_path):
        # the anti-diagonal Q of the bundled model has zeros where P does not
        assert main(["region", EXAMPLE1, "--kind", "direct",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_rht_of_a_non_ac_source_is_domain_error(self, tmp_path, capsys):
        # D(Q||P) is finite, so the default grid exists, but D(P||Q) is not
        assert main(["region", EXAMPLE1, "--kind", "rht",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "absolutely continuous" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["direct", "channel", "rht"])
def test_region_of_a_useless_model_prints_only_the_header(kind, tmp_path,
                                                          capsys):
    """P = Q over a channel of identical rows: every kind has an empty
    positive boundary, so it warns, prints the header and no rows, and
    exits 0."""
    spec = dict(BERN, q_uv=BERN["p_uv"],
                channel=dict(BERN["channel"], rows=[["0.4", "0.6"]] * 2))
    path, out = tmp_path / "useless.json", tmp_path / "out.csv"
    path.write_text(json.dumps(spec))
    assert main(["region", str(path), "--kind", kind, "--points", "4",
                 "--out", str(out)]) == 0
    assert "warning: degenerate" in capsys.readouterr().err
    _, header, rows = read_csv(out)
    assert header == ["kappa_alpha", "kappa_beta", "theta0", "theta1",
                      "bound"]
    assert rows == []


@pytest.mark.parametrize("error, code", [
    (InputError, 2), (DomainError, 3), (BracketError, 4),
    (ConvergenceError, 4), (EstimationError, 4), (ErrexpError, 2)])
def test_error_classes_map_to_exit_codes(error, code, bern_model,
                                         monkeypatch, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(errexp.cli, "cmd_region", fail)
    assert main(["region", bern_model, "--kind", "direct"]) == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("command, options", [
    ("region", ["--kind", "direct"]),
    ("region", ["--kind", "rht"]),
    ("bounds", ["--scheme", "jhtcc-uncoded", "--grid", "4"]),
], ids=["direct", "rht", "jhtcc-uncoded"])
def test_infinite_default_grid_end_exits_3(tmp_path, capsys, command, options):
    # the bundled model with P and Q swapped: P_UV vanishes where Q_UV does
    # not, so D(Q||P) = +inf and the default grid has no upper end
    with open(EXAMPLE1) as fh:
        spec = json.load(fh)
    spec["p_uv"], spec["q_uv"] = spec["q_uv"], spec["p_uv"]
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "x.csv"
    assert main([command, str(path), "--out", str(out)] + options) == 3
    assert "--kappa-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["shtcc", "both"])
def test_general_model_takes_only_jhtcc_uncoded(scheme, bern_model, tmp_path,
                                                capsys):
    # BERN tests neither against independence nor against dependence
    out = tmp_path / "x.csv"
    assert main(["bounds", bern_model, "--scheme", scheme,
                 "--kappa-grid", "0.01", "--out", str(out)]) == 3
    assert "jhtcc-uncoded" in capsys.readouterr().err
    assert not out.exists()


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


    def test_both_over_a_noiseless_channel(self, tmp_path):
        """example1's source over a noiseless binary channel: E_x(0) and the
        uncoded bound are +inf at every kappa_alpha, so every row prints
        inf and there is no crossover line."""
        with open(EXAMPLE1) as fh:
            spec = json.load(fh)
        spec["channel"]["rows"] = [["1", "0"], ["0", "1"]]
        path, out = tmp_path / "noiseless.json", tmp_path / "both.csv"
        path.write_text(json.dumps(spec))
        assert main(["bounds", str(path), "--scheme", "both", "--kappa-grid",
                     "0.001,0.01", "--out", str(out)]) == 0
        comments, _, rows = read_csv(out)
        assert not [c for c in comments if c.startswith("# crossover")]
        assert rows == [
            ["0.001", "shtcc_ex0_upper", "inf", "1", "dd8e26a6a3fb"],
            ["0.001", "jhtcc_uncoded", "inf", "1", "cd9eb066aa24"],
            ["0.01", "shtcc_ex0_upper", "inf", "1", "dd8e26a6a3fb"],
            ["0.01", "jhtcc_uncoded", "inf", "1", "cd9eb066aa24"]]

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
        model bench/models/rht3.json (|V| = 1, |Y| = 3): each value is the
        largest `jhtcc_uncoded` over the 27 maps u -> x, at (0, 1, 1) for
        0.01 and at (1, 1, 0) for 0.03 and 0.06."""
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
            "0.01,jhtcc_uncoded,0.0321374363,1,a2bb56a5c668\n"
            "0.03,jhtcc_uncoded,0.0111907734,1,54d77e1f7adc\n"
            "0.06,jhtcc_uncoded,0.00137750324,1,54d77e1f7adc\n")

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

        monkeypatch.setattr("errexp.simulate.simulate_rht", no_draws)
        assert main(["simulate", bern_model, "--n-grid", "40", "--trials",
                     "2000", f"{option}={value}"]) == 2
        assert f"{option}: must be finite" in capsys.readouterr().err

    def test_threshold_outside_interval_exits_3_before_drawing(
            self, bern_model, monkeypatch, capsys):
        def no_draws(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr("errexp.simulate.simulate_rht", no_draws)
        assert main(["simulate", bern_model, "--n-grid", "40", "--trials",
                     "2000", "--theta1", "5"]) == 3
        assert "outside the admissible interval" in capsys.readouterr().err

    @pytest.mark.parametrize("theta0", ["5", "-5"])
    def test_direct_theta0_outside_interval_exits_3_before_drawing(
            self, tmp_path, monkeypatch, capsys, theta0):
        # Bern(.5) against Bern(.2): the LLR interval is about (-0.223, 0.193)
        def no_draws(*args):
            raise AssertionError("trials drawn")

        monkeypatch.setattr("errexp.simulate.simulate_direct", no_draws)
        path = tmp_path / "direct.json"
        path.write_text(json.dumps({k: v for k, v in BERN.items()
                                    if k != "channel"}))
        assert main(["simulate", str(path), "--n-grid", "40", "--trials",
                     "2000", f"--theta0={theta0}"]) == 3
        assert "outside the admissible interval" in capsys.readouterr().err

    def test_default_theta1_recorded_as_zero(self, bern_model, tmp_path):
        direct = tmp_path / "direct.json"
        direct.write_text(json.dumps(NO_CHANNEL))
        manifests = []
        for path, extra in ((bern_model, []), (bern_model, ["--theta1", "0"]),
                            (direct, [])):
            out = tmp_path / "sim.csv"
            assert main(["simulate", str(path), "--n-grid", "40,80",
                         "--trials", "2000", "--out", str(out), *extra]) == 0
            manifests.append(read_csv(out)[0][2])
        assert manifests == ["# params n_grid=40,80,seed=0,theta0=0.0,"
                             "theta1=0.0,trials=2000"] * 3

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

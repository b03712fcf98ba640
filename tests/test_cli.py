import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import budgetmax
from budgetmax import cli, environments
from budgetmax import ActionSet, Stream
from budgetmax.cli import (ConfigError, ExperimentConfig, TRACE_HEAD, TRACE_HEADER, TRACE_TAIL,
                           load_config, main, parse_config, run_experiment)
from budgetmax.environments import EnvironmentSpec, generate, read_stream, write_stream
from budgetmax.oracles import ComparatorResult, best_fixed_subset
from conftest import stacked


def good_config(**overrides):
    data = {
        "version": 1,
        "environment": {"kind": "knapsack_01", "n": 4, "T": 20, "seed": 3},
        "seeds": [0, 1, 2],
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_minimal_valid(self):
        config = parse_config(good_config())
        assert config.environment.kind == "knapsack_01"
        assert config.seeds == (0, 1, 2)
        assert config.output_dir is None and config.bound_check is False

    def test_unknown_keys_listed(self):
        data = good_config(extra=1, bogus=2)
        data["environment"]["wat"] = 3
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        msg = str(err.value)
        assert "'extra'" in msg and "'bogus'" in msg and "'wat'" in msg

    def test_multiple_violations_all_reported(self):
        data = {"version": 9, "environment": {"kind": "nope", "n": 4, "T": 20},
                "seeds": [], "bound_check": "yes"}
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        msg = str(err.value)
        for frag in ("version must be 1", "unknown kind", "seeds must be", "bound_check must be"):
            assert frag in msg

    def test_missing_environment_keys(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            parse_config(good_config(environment={"kind": "knapsack_01"}))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(good_config(seeds=[1, 1]))

    def test_bound_check_too_wide_reported_with_other_violations(self):
        env = {"kind": "random_adversarial", "n": 30, "T": 5}
        with pytest.raises(ConfigError) as err:
            parse_config(good_config(environment=env, seeds=[1, 1], bound_check=True))
        msg = str(err.value)
        assert "bound_check needs n <= 20, got 30" in msg and "distinct" in msg
        # without the comparator the same environment is fine
        assert parse_config(good_config(environment=env)).environment.n == 30

    def test_seed_beyond_a_philox_key_reported_with_other_violations(self):
        # Philox keys are 128-bit, so 2**128 - 1 is the largest seed
        assert run_experiment(parse_config(good_config(seeds=[2**128 - 1]))).T == 20
        with pytest.raises(ConfigError) as err:
            parse_config(good_config(version=2, seeds=[0, 2**128]))
        msg = str(err.value)
        assert f"seeds must be below 2**128, got {2**128}" in msg and "version must be 1" in msg

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_config_not_utf8_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff" + json.dumps(good_config()).encode("ascii"))
        with pytest.raises(ConfigError, match=f"config {re.escape(str(path))} is not UTF-8: "):
            load_config(path)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {path} is not UTF-8: ")
        assert not out.exists()

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(good_config()))
        assert load_config(path) == parse_config(good_config())


class TestTraces:
    # (trial, indices, profit, grad_norm, eta): a trace row's fields without cum_profit
    ROWS = [(1, [0, 2], 1.5, 0.25, 2.0), (2, [], 0.0, 0.0, 2.0), (3, [1], -0.25, 0.125, 1.0)]

    @staticmethod
    def write(rows, path):
        text, cum = TRACE_HEADER + "\n", 0.0
        for trial, indices, profit, grad_norm, eta in rows:
            cum += profit
            text += (TRACE_HEAD + TRACE_TAIL) % (trial, ";".join(map(str, indices)), profit, cum,
                                                 grad_norm, eta)
        Path(path).write_bytes(text.encode("ascii"))

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        self.write(self.ROWS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "1,0;2,1.5,1.5,0.25,2"
        assert lines[2].startswith("2,,0,1.5,")
        assert len(lines) == 4


class TestRunExperiment:
    def test_report_fields(self, tmp_path):
        config = parse_config(good_config(
            output_dir=str(tmp_path / "out"), bound_check=True))
        report = run_experiment(config)
        assert report.n == 4 and report.T == 20
        assert len(report.per_seed_profit) == 3
        assert report.mean_profit == pytest.approx(float(np.mean(report.per_seed_profit)))
        assert report.comparator_total is not None
        assert report.bound_satisfied in (True, False)
        assert not report.large_beta_mode
        out = tmp_path / "out"
        assert (out / "stream.csv").exists()
        assert (out / "report.json").exists()
        for seed in (0, 1, 2):
            trace = (out / f"trace_seed{seed}.csv").read_text().splitlines()
            assert trace[0] == TRACE_HEADER
            assert len(trace) == 21

    def test_run_draws_each_learned_block_whole(self, monkeypatch):
        # n = 2000 learns 8 trials per block; each seed draws each block in one call
        learned, drawn = [], []
        real_learn, real_draw = cli.learn_blocks, cli.draw_trials

        def recorded_learn(*args):
            for item in real_learn(*args):
                learned.append(item[3])
                yield item

        def recorded_draw(weights, seed, layout, start=0):
            drawn.append((start, len(weights), weights))
            return real_draw(weights, seed, layout, start)

        monkeypatch.setattr(cli, "learn_blocks", recorded_learn)
        monkeypatch.setattr(cli, "draw_trials", recorded_draw)
        env = {"kind": "random_adversarial", "n": 2000, "T": 20, "seed": 0}
        run_experiment(parse_config(good_config(environment=env, seeds=[0, 3])))
        assert [(start, rows) for start, rows, _ in drawn] == [
            (0, 8), (0, 8), (8, 8), (8, 8), (16, 4), (16, 4)]
        for (_, _, weights), block in zip(drawn, [b for b in learned for _seed in range(2)]):
            assert weights is block.weights

    def test_single_seed_has_zero_stderr(self):
        config = parse_config(good_config(seeds=[5]))
        report = run_experiment(config)
        assert report.profit_stderr == 0.0

    def test_zero_stream_trivially_satisfies_bound(self):
        env = {"kind": "facility_location", "n": 2, "T": 1, "seed": 0,
               "r_max": 0.0, "cost_range": [0.0, 0.0]}
        config = parse_config(good_config(environment=env, seeds=[0], bound_check=True))
        report = run_experiment(config)
        assert report.per_seed_profit == (0.0,)
        assert report.comparator_total == 0.0
        assert report.bound_slack == 0.0
        assert report.bound_satisfied is True

    def test_deterministic_outputs_byte_identical(self, tmp_path):
        texts = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            config = parse_config(good_config(output_dir=str(out)))
            run_experiment(config)
            texts.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
        assert texts[0] == texts[1]

    def test_replay_reproduces_report(self, tmp_path):
        # with a bound check, the replay's comparator scores the blocks it learned
        for bound_check in (False, True):
            out = tmp_path / f"out{bound_check}"
            config = parse_config(good_config(output_dir=str(out), bound_check=bound_check))
            first = run_experiment(config)
            again = run_experiment(parse_config(good_config(bound_check=bound_check)),
                                   read_stream(out / "stream.csv"))
            assert again == first
            assert (first.comparator_total is not None) == bound_check

    def test_replay_shape_mismatch_rejected(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(parse_config(good_config(output_dir=str(out))))
        bad = parse_config(good_config(environment={"kind": "knapsack_01", "n": 5, "T": 20}))
        with pytest.raises(ConfigError, match="does not match"):
            run_experiment(bad, read_stream(out / "stream.csv"))

    def test_bad_stream_writes_no_file(self, tmp_path):
        # a stream off its kind's pattern, or of the wrong size, is refused
        # before the output directory is made
        stream = generate(EnvironmentSpec(**good_config()["environment"]))
        rewards, costs = stacked(stream)
        out = tmp_path / "out"
        config = parse_config(good_config(output_dir=str(out)))
        off_pattern = Stream(stream.action_set, rewards + 0.5, costs)
        with pytest.raises(ValueError, match="rewards must all be zero"):
            run_experiment(config, stream=off_pattern)
        short = Stream(stream.action_set, rewards[:5], costs[:5])
        with pytest.raises(ConfigError, match="does not match"):
            run_experiment(config, stream=short)
        # a replayed file broken only in its last trial, of three blocks (8/8/4 at n = 2000)
        env = {"kind": "knapsack_01", "n": 2000, "T": 20, "seed": 3}
        wide = generate(EnvironmentSpec(**env))
        rewards, costs = stacked(wide)
        rewards[-1, 5] = 0.25
        write_stream(Stream(wide.action_set, rewards, costs), tmp_path / "late.csv")
        with pytest.raises(ValueError, match="^knapsack_01 constraints violated: "
                                             "rewards must all be zero$"):
            run_experiment(parse_config(good_config(environment=env, output_dir=str(out))),
                           read_stream(tmp_path / "late.csv"))
        assert not out.exists()

    def test_stream_passed_in_without_a_file_saves_the_run_it_generates(self, tmp_path):
        # write_stream of a stream passed in gives the files a generated run writes
        env = {"kind": "random_adversarial", "n": 1000, "T": 40, "seed": 0}
        outputs = []
        for k, stream in enumerate((None, generate(EnvironmentSpec(**env)))):
            out = tmp_path / f"run{k}"
            run_experiment(parse_config(good_config(environment=env, seeds=[0, 3],
                                                    output_dir=str(out))), stream)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["report.json", "stream.csv", "trace_seed0.csv",
                                      "trace_seed3.csv"]
        assert outputs[0] == outputs[1]

    def test_negative_zero_stream_reports_positive_zero_ceilings(self, tmp_path):
        env = {"kind": "facility_location", "n": 2, "T": 2}
        path = tmp_path / "zeros.csv"
        path.write_bytes(b"2,2,0,0\n1,-0,-0,-0,-0\n2,-0,-0,-0,-0\n")
        out = tmp_path / "out"
        run_experiment(parse_config(good_config(environment=env, seeds=[0], output_dir=str(out))),
                       read_stream(path))
        report = (out / "report.json").read_text(encoding="utf-8")
        assert '"r_hat": 0.0,' in report and '"c_hat": 0.0,' in report

    def test_each_run_checks_the_pattern_once(self, tmp_path, monkeypatch):
        # a generated run checks its energies once (no value range: its
        # generator keeps every rule on values), a replay its parsed stream
        # once, by the value range the reader folded, each before the output
        # directory exists
        calls = []

        def counted_check(stream, spec):
            calls.append((stream.value_range, out.exists()))
            return check_stream(stream, spec)

        check_stream = environments.check_stream
        monkeypatch.setattr(cli, "check_stream", counted_check)
        # n = 2000 generates 8 trials per block: 8/8/4
        env = {"kind": "knapsack_01", "n": 2000, "T": 20, "seed": 3}
        out = tmp_path / "run"
        run_experiment(parse_config(good_config(environment=env, output_dir=str(out))))
        assert calls == [(None, False)]
        calls.clear()
        stream = read_stream(out / "stream.csv")
        rewards, costs = stacked(stream)
        out = tmp_path / "replay"
        run_experiment(parse_config(good_config(environment=env, output_dir=str(out))), stream)
        assert calls == [((rewards.max(), costs.min(), costs.max()), False)]
        assert all(type(value) is float for value in calls[0][0])

    def test_trace_does_not_depend_on_other_seeds(self, tmp_path):
        traces = []
        for k, seeds in enumerate(([0, 1, 2], [1])):
            out = tmp_path / f"run{k}"
            run_experiment(parse_config(good_config(output_dir=str(out), seeds=seeds)))
            traces.append((out / "trace_seed1.csv").read_bytes())
        assert traces[0] == traces[1]

    # sha256 of acceptance criterion 10's outputs; these change only with a
    # deliberate change to the random stream, to a file format, or to the
    # rounding of the learner's arithmetic (the trace's grad_norm and eta)
    PINNED_SHA256 = {
        "report.json": "22e6bbbbd57ca6a496e90c8a511aa578f77c690da79ba6d61aa35a9c2e34bbfc",
        "stream.csv": "dc8edca7d86492ae02d6d88ac850093aaf487f1f4e1e868e395918da41ff3247",
        "trace_seed0.csv": "2adbf0441c6a2b9267d7d6a40135831970969262839275f040e09993276fff9a",
        "trace_seed1.csv": "4077642ffcc566690bfd6bf06534d70c531256c5776886c43b61bcca89685131",
        "trace_seed2.csv": "5f495521960cea947263e0e80a49eec09a117b66453b8b305ed9327958a39392",
        "trace_seed3.csv": "819f8afc09344cd6129aebbe270fe3485279ffce10763d6dede4e4bd77e3d6a1",
    }
    # sha256 of the same traces cut to trial,selected,profit,cum_profit: they
    # change with the random stream (per-seed Philox rows, one uniform per
    # residual draw), but not with the last digits of the learner's
    # grad_norm and eta; "wrapper" is a beta_max 0.95 run, which samples
    # through the large-energy wrapper
    PINNED_SELECTION_SHA256 = {
        "criterion_10": {
            "trace_seed0.csv": "5f6d04d1eb4ca986759bc29ec7e75e3f936e576402768b7edd782b30bad720ae",
            "trace_seed1.csv": "57fe142b004e867bae474cf3214c7dedf1f1e330f76b2ef58db802f2ad4c39d6",
            "trace_seed2.csv": "dd7a9792b6c3a75d79e0282983f8f9c72cfbc622419c69b87c611bd0602bd398",
            "trace_seed3.csv": "9f356862dfa641356f0679f1a7ae8c33ec20443e45679ca709203929c748466b",
        },
        "wrapper": {
            "trace_seed0.csv": "c8829895c4762c353b13e3f3c92c3b6a8a2dea3060178508e3b1f9fe2722b120",
            "trace_seed1.csv": "c681e94b2694aa70fe848a8c8de740e4f656cf73faba6660e3c73d8b30bb5b79",
        },
    }

    # sha256 of a run that crosses blocks: n = 1000 learns and draws 16 trials
    # per block, so T = 60 is four blocks (16/16/16/12), and two seeds
    # interleave their draws and trace rows across them
    PINNED_MULTI_BLOCK_SHA256 = {
        "report.json": "bb63583750a0a87c73b98fd8bd509b61d6a13c126eec792baf0676e7976a7f95",
        "stream.csv": "51e277843d6d2b21e9afee1206fa7a2f2ff09f3e7ef69e8bc3ddb3434c74b67d",
        "trace_seed0.csv": "d8dd729a2b66eaf6cb0fcad1ad557f2e076ef7ecd2d860b073186f96c41da598",
        "trace_seed3.csv": "cd7ff3a4fb4ab75b5d4919b4da8816832f9a26f854f5a2727f05898bdd7e4c94",
    }

    @staticmethod
    def criterion_10_outputs(out):
        env = {"kind": "random_adversarial", "n": 6, "T": 60, "seed": 9, "shift_segments": 3}
        run_experiment(parse_config(good_config(
            environment=env, seeds=[0, 1, 2, 3], bound_check=True, output_dir=str(out))))
        return sorted(out.iterdir())

    @staticmethod
    def selection_digests(paths):
        digests = {}
        for p in paths:
            if p.name.startswith("trace_seed"):
                cut = "".join(",".join(line.split(",")[:4]) + "\n"
                              for line in p.read_text(encoding="ascii").splitlines())
                digests[p.name] = hashlib.sha256(cut.encode("ascii")).hexdigest()
        return digests

    def test_outputs_match_pinned_hashes(self, tmp_path):
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in self.criterion_10_outputs(tmp_path / "out")}
        assert digests == self.PINNED_SHA256

    def test_selections_match_pinned_hashes(self, tmp_path):
        digests = self.selection_digests(self.criterion_10_outputs(tmp_path / "out"))
        assert digests == self.PINNED_SELECTION_SHA256["criterion_10"]

    def test_wrapper_selections_match_pinned_hashes(self, tmp_path):
        env = {"kind": "random_adversarial", "n": 8, "T": 60, "seed": 9, "beta_max": 0.95}
        out = tmp_path / "out"
        report = run_experiment(parse_config(good_config(
            environment=env, seeds=[0, 1], output_dir=str(out))))
        assert report.large_beta_mode
        digests = self.selection_digests(sorted(out.iterdir()))
        assert digests == self.PINNED_SELECTION_SHA256["wrapper"]

    def test_multi_block_outputs_match_pinned_hashes(self, tmp_path):
        env = {"kind": "random_adversarial", "n": 1000, "T": 60, "seed": 2}
        out = tmp_path / "out"
        run_experiment(parse_config(good_config(environment=env, seeds=[0, 3],
                                                output_dir=str(out))))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == self.PINNED_MULTI_BLOCK_SHA256

    @pytest.mark.parametrize("T", [800, 3200])
    def test_generated_run_holds_one_block(self, T):
        # a generated run draws its trials a block at a time, so its peak stays
        # below half of one (T, n) matrix and does not grow with T
        n = 1000
        env = {"kind": "random_adversarial", "n": n, "T": T, "seed": 0}
        # a short run first, so the modules a first run imports are not counted
        run_experiment(parse_config(good_config(environment={**env, "T": 2}, seeds=[0])))
        config = parse_config(good_config(environment=env, seeds=[0]))
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * n * 8 / 2

    def test_replay_holds_one_block(self, tmp_path):
        # a replay parses its file into a spool and learns it a block at a time,
        # so its peak stays below half of the two (T, n) matrices at T = 3200
        # and does not grow with T; at T = 1000 the learner's own block state,
        # which a generated run holds too, is already above that half
        n, peaks = 100, {}
        for T in (2, 1000, 3200):  # T = 2 first, so first-use imports are not counted
            env = {"kind": "random_adversarial", "n": n, "T": T, "seed": 0}
            out = tmp_path / f"T{T}"
            run_experiment(parse_config(good_config(environment=env, seeds=[0],
                                                    output_dir=str(out))))
            config = parse_config(good_config(environment=env, seeds=[0]))
            tracemalloc.start()
            try:
                with closing(read_stream(out / "stream.csv")) as stream:
                    run_experiment(config, stream)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3200] < 3200 * n * 16 / 2
        assert peaks[3200] < 1.1 * peaks[1000]

    def test_a_bound_checked_replay_reads_its_spool_a_block_at_a_time(self, tmp_path,
                                                                       monkeypatch):
        # n = 20 cuts 819 rows per block (819/181 at T = 1000): the learner and
        # then the comparator each read the spool by its blocks, so no read
        # asks for more than one
        env = {"kind": "knapsack_01", "n": 20, "T": 1000, "seed": 3}
        out = tmp_path / "run"
        first = run_experiment(parse_config(good_config(environment=env, bound_check=True,
                                                        output_dir=str(out))))
        counts = []
        real = np.fromfile

        def counted(*args, count=-1, **kwargs):
            counts.append(count)
            return real(*args, count=count, **kwargs)

        monkeypatch.setattr(np, "fromfile", counted)
        with closing(read_stream(out / "stream.csv")) as stream:
            again = run_experiment(parse_config(good_config(environment=env, bound_check=True)),
                                   stream)
        assert counts == [819 * 40, 181 * 40] * 2
        assert again == first and first.comparator_total is not None

    def test_a_bound_checked_run_generates_its_stream_once(self, monkeypatch):
        # the comparator reads the run's own stream again, drawing its blocks a
        # second time, and generates no second stream
        spec = EnvironmentSpec(**good_config()["environment"])
        calls = []
        real = environments._GENERATORS[spec.kind]
        monkeypatch.setitem(environments._GENERATORS, spec.kind,
                            lambda spec: calls.append(spec) or real(spec))
        report = run_experiment(parse_config(good_config(bound_check=True)))
        assert calls == [spec]
        monkeypatch.undo()
        stream = generate(spec)
        comp = best_fixed_subset(Stream(stream.action_set, *stacked(stream)),
                                 report.alpha, report.delta)
        assert (report.comparator_subset, report.comparator_total) == (comp.subset,
                                                                       comp.discounted_total)

    def test_one_trace_open_at_a_time(self, tmp_path, monkeypatch):
        handles = []

        def tracked_open(*args, **kwargs):
            assert all(fh.closed for fh in handles)
            handles.append(open(*args, **kwargs))
            return handles[-1]

        seeds = list(range(64))
        monkeypatch.setattr(cli, "open", tracked_open, raising=False)
        out = tmp_path / "all"
        run_experiment(parse_config(good_config(seeds=seeds, output_dir=str(out))))
        assert handles and all(fh.closed for fh in handles)
        monkeypatch.undo()
        for seed in seeds:
            alone = tmp_path / f"seed{seed}"
            run_experiment(parse_config(good_config(seeds=[seed], output_dir=str(alone))))
            name = f"trace_seed{seed}.csv"
            assert (out / name).read_bytes() == (alone / name).read_bytes(), seed

    def test_config_built_in_code_is_refused_before_writing(self, tmp_path, monkeypatch):
        # an empty output_dir would name the working directory, and no seeds would
        # report a nan mean profit: both are refused when the config is built
        monkeypatch.chdir(tmp_path)
        spec = EnvironmentSpec(kind="knapsack_01", n=4, T=20, seed=3)
        with pytest.raises(ConfigError, match="^invalid config: output_dir must not be empty$"):
            run_experiment(ExperimentConfig(spec, (0,), output_dir=""))
        with pytest.raises(ConfigError, match=re.escape(
                "invalid config: seeds must be a non-empty list of non-negative integers, got ()")):
            run_experiment(ExperimentConfig(spec, ()))
        with pytest.raises(ConfigError, match="output_dir must not be empty"):
            dataclasses.replace(ExperimentConfig(spec, (0,)), output_dir="")
        assert list(tmp_path.iterdir()) == []

    def test_config_built_with_lists_equals_one_built_with_tuples(self):
        # parse_config passes JSON lists; each one is kept as a tuple
        spec = EnvironmentSpec(kind="facility_location", n=4, T=20, cost_range=[0.0, 0.1],
                               value_range=[0.0, 0.5])
        twin = EnvironmentSpec(kind="facility_location", n=4, T=20, cost_range=(0.0, 0.1),
                               value_range=(0.0, 0.5))
        assert spec == twin and hash(spec) == hash(twin)
        assert spec.cost_range == (0.0, 0.1) and spec.value_range == (0.0, 0.5)
        config = ExperimentConfig(spec, [0, 1])
        assert config == ExperimentConfig(twin, (0, 1)) and config.seeds == (0, 1)
        assert hash(config) == hash(ExperimentConfig(twin, (0, 1)))
        parsed = parse_config(good_config(environment={
            "kind": "facility_location", "n": 4, "T": 20, "cost_range": [0.0, 0.1],
            "value_range": [0.0, 0.5]}, seeds=[0, 1]))
        assert parsed == config and hash(parsed) == hash(config)

    def test_config_built_in_code_lists_every_violation(self):
        spec = EnvironmentSpec(kind="random_adversarial", n=30, T=5)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(spec, (1, 1, 2**128), output_dir=3, bound_check=True)
        assert str(err.value) == (
            f"invalid config: seeds must be distinct; seeds must be below 2**128, got {2**128}; "
            "output_dir must be a string, got int; bound_check needs n <= 20, got 30")
        with pytest.raises(ConfigError, match="environment must be an EnvironmentSpec, got dict; "
                                              "bound_check must be a boolean, got str"):
            ExperimentConfig({"kind": "knapsack_01"}, (0,), bound_check="yes")

    def test_large_beta_flagged(self):
        spec = EnvironmentSpec(kind="knapsack_median", n=3, T=5, seed=1, beta_max=0.8)
        config = ExperimentConfig(environment=spec, seeds=(0,))
        report = run_experiment(config)
        assert report.large_beta_mode is True
        assert any("experimental" in line for line in report.summary_lines())


class TestMain:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config(bound_check=True))
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "run"])
        assert code == 0
        assert "mean cumulative profit" in capsys.readouterr().out

    def test_replay_ok(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config())
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "run"]) == 0
        code = main(["--config", cfg, "replay", "--stream", str(tmp_path / "out" / "stream.csv")])
        assert code == 0

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config(version=3))
        assert main(["--config", cfg, "run"]) == 1

    def test_missing_config_flag_exits_1(self):
        assert main(["run"]) == 1

    def test_missing_stream_file_exits_2(self, tmp_path):
        cfg = self.write_config(tmp_path, good_config())
        code = main(["--config", cfg, "replay", "--stream", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_malformed_stream_exits_1(self, tmp_path):
        cfg = self.write_config(tmp_path, good_config())
        bad = tmp_path / "bad.csv"
        bad.write_text("4,20,0.1,0.1,0.1,0.1\n1,oops\n")
        assert main(["--config", cfg, "replay", "--stream", str(bad)]) == 1

    def test_preamble_trials_beyond_the_file_exit_1_naming_the_line(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config())
        bad = tmp_path / "bad.csv"
        bad.write_text("1," + "9" * 400 + ",0.25\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(bad)]) == 1
        assert capsys.readouterr().err == "error: line 2: expected trial 1, found end of file\n"
        assert not out.exists()

    def test_tiny_energies_run_and_replay(self, tmp_path):
        # beta_max 1e-40 rounds tau to 1.0: every positive energy shares one class
        env = {"kind": "random_adversarial", "n": 3, "T": 5, "seed": 1, "beta_max": 1e-40}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0, 1],
                                                      bound_check=True))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        names = ["report.json", "stream.csv", "trace_seed0.csv", "trace_seed1.csv"]
        assert sorted(p.name for p in out.iterdir()) == names
        report = json.loads((out / "report.json").read_text())
        assert report["delta"] == 1.0 and report["bound_satisfied"] is True
        # a replayed stream whose energies are all 1e-300
        stream = Stream(ActionSet.from_energies([1e-300] * 3), np.full((5, 3), 0.5),
                        np.full((5, 3), -0.1))
        write_stream(stream, tmp_path / "tiny.csv")
        replay = tmp_path / "replay"
        assert main(["--config", cfg, "--out", str(replay), "replay", "--stream",
                     str(tmp_path / "tiny.csv")]) == 0
        assert sorted(p.name for p in replay.iterdir()) == names

    def test_non_finite_stream_exits_1_before_writing(self, tmp_path):
        env = {"kind": "facility_location", "n": 3, "T": 5, "seed": 2}
        cfg = self.write_config(tmp_path, good_config(environment=env))
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "run"]) == 0
        lines = (tmp_path / "out" / "stream.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        replay_out = tmp_path / "replay"
        code = main(["--config", cfg, "--out", str(replay_out), "replay", "--stream", str(bad)])
        assert code == 1
        assert not replay_out.exists()

    def test_bound_check_too_wide_exits_1_before_writing(self, tmp_path, capsys):
        env = {"kind": "random_adversarial", "n": 30, "T": 5}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0, 1],
                                                      bound_check=True))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        assert "bound_check needs n <= 20, got 30" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_beyond_a_philox_key_exits_1_before_writing(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config(seeds=[0, 2**128]))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err == f"error: invalid config: seeds must be below 2**128, got {2**128}\n"
        assert not out.exists()

    def test_empty_output_dir_exits_1_before_writing(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, which must stay empty whichever
        # spelling names it: the config's key, or --out over a valid key
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for data, out in ((good_config(output_dir=""), []),
                          (good_config(output_dir=str(tmp_path / "out")), ["--out", ""])):
            cfg = self.write_config(tmp_path, data)
            assert main(["--config", cfg, *out, "run"]) == 1
            assert capsys.readouterr().err == "error: invalid config: output_dir must not be empty\n"
            assert list(cwd.iterdir()) == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["knapsack_median", "knapsack_01"])
    def test_energies_that_underflow_exit_1_before_writing(self, tmp_path, capsys, kind):
        # beta_max * (1 - u) rounds to 0 at the smallest subnormal beta_max
        # whenever u >= 0.5, which breaks the kind's energy rule
        env = {"kind": kind, "n": 8, "T": 20, "seed": 1, "beta_max": 5e-324}
        cfg = self.write_config(tmp_path, good_config(environment=env))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err == (f"error: {kind} constraints violated: "
                                           "energies must lie in (0, beta_max]\n")
        assert not out.exists()

    def test_gradient_norm_overflow_exits_1_naming_the_trial(self, tmp_path, capsys):
        # every reward and cost is finite, but |g| overflows on the first trial
        env = {"kind": "random_adversarial", "n": 4, "T": 20, "r_max": 1e308}
        cfg = self.write_config(tmp_path, good_config(environment=env))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trial 1: ") and "not finite" in err
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []  # no stream, no trace, no report

    def test_failure_in_a_later_block_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # n = 200 learns 81 trials per block (81/81/38), so trial 150 fails in
        # the second block, after the first block's trace rows were written
        env = {"kind": "random_adversarial", "n": 200, "T": 200, "seed": 0}
        stream = generate(EnvironmentSpec(**env))
        rewards, costs = stacked(stream)
        rewards[149, 7] = 1e308
        path = tmp_path / "stream.csv"
        write_stream(Stream(stream.action_set, rewards, costs), path)
        cfg = self.write_config(tmp_path, good_config(environment={**env, "r_max": 1e308}))
        opened = []

        def recorded_open(file, mode="r", *args, **kwargs):
            opened.append((Path(file).name, mode))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recorded_open, raising=False)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(path)]) == 1
        assert capsys.readouterr().err == ("error: trial 150: the surrogate gradient norm is not "
                                           "finite (inf); rewards or costs are too large\n")
        assert ("trace_seed0.csv.tmp", "w") in opened
        assert list(out.iterdir()) == []

    def test_each_trace_is_opened_once_per_block(self, tmp_path, monkeypatch):
        # n = 2000 learns 8 trials per block (8/8/4): the first block creates each
        # trace, over a crashed run's leftover, and every later block appends to it
        env = {"kind": "random_adversarial", "n": 2000, "T": 20, "seed": 0}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0, 1]))
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert main(["--config", cfg, "--out", str(clean), "run"]) == 0
        out.mkdir()
        (out / "trace_seed0.csv.tmp").write_text("junk from a crashed run\n" * 100)
        opened = []

        def recorded_open(file, mode="r", *args, **kwargs):
            opened.append((Path(file).name, mode))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recorded_open, raising=False)
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in clean.iterdir())
        for seed in (0, 1):
            name = f"trace_seed{seed}.csv"
            assert [mode for file, mode in opened if file == f"{name}.tmp"] == ["w", "a", "a"]
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    @staticmethod
    def spoil_second_block(monkeypatch, spoil):
        # wraps the block function of the generator that random_adversarial streams draw
        # from; at n = 2000 the second block starts at trial 9, and it is spoiled on every
        # draw, the stream write's and the learner's alike
        real = environments._GENERATORS["random_adversarial"]

        def spoiled(spec):
            z, block = real(spec)

            def block_with_a_bad_second(start, rows):
                rewards, costs = block(start, rows)
                if start == 8:
                    spoil(rewards)
                return rewards, costs
            return z, block_with_a_bad_second

        monkeypatch.setitem(environments._GENERATORS, "random_adversarial", spoiled)

    def test_bad_generated_block_names_its_trial_and_leaves_no_file(self, tmp_path, capsys,
                                                                    monkeypatch):
        # n = 2000 generates 8 trials per block: row 2 of the second is trial 11.
        # No generator makes a nan, so none is checked for; the learner's guard
        # stops it
        def spoil(rewards):
            rewards[2, 5] = np.nan

        self.spoil_second_block(monkeypatch, spoil)
        env = {"kind": "random_adversarial", "n": 2000, "T": 20, "seed": 0}
        cfg = self.write_config(tmp_path, good_config(environment=env))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err == ("error: trial 11: the surrogate gradient norm is not "
                                           "finite (nan); rewards or costs are too large\n")
        assert list(out.iterdir()) == []

    def test_memory_error_exits_2_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def spoil(rewards):
            raise MemoryError()

        self.spoil_second_block(monkeypatch, spoil)
        env = {"kind": "random_adversarial", "n": 2000, "T": 20, "seed": 0}
        cfg = self.write_config(tmp_path, good_config(environment=env))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert list(out.iterdir()) == []

        message = "Unable to allocate 153. MiB for an array with shape (20000, 1000)"

        def too_large(path):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "read_stream", too_large)
        assert main(["--config", cfg, "--out", str(tmp_path / "replay"), "replay",
                     "--stream", str(tmp_path / "stream.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "replay").exists()

    # n = 100 parses 81 trial lines and learns 163 trials per block
    SPOOL_ENV = {"kind": "random_adversarial", "n": 100, "T": 400, "seed": 0}

    @pytest.fixture
    def spools(self, monkeypatch):
        """Every temporary file the stream reader makes, as it makes them."""
        handles = []
        real = environments.TemporaryFile

        def tracked(*args, **kwargs):
            handles.append(real(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(environments, "TemporaryFile", tracked)
        return handles

    def recorded_stream(self, tmp_path):
        """The stream file a run of ``SPOOL_ENV`` writes."""
        cfg = self.write_config(tmp_path, good_config(environment=self.SPOOL_ENV, seeds=[0]))
        assert main(["--config", cfg, "--out", str(tmp_path / "run"), "run"]) == 0
        return tmp_path / "run" / "stream.csv"

    @pytest.mark.parametrize("fault, code", [(None, 0), ("later line", 1), ("kind", 1),
                                             ("shape", 1), ("second block", 2), ("copy", 2)])
    def test_every_replay_closes_its_spool(self, tmp_path, capsys, monkeypatch, spools,
                                           fault, code):
        path = self.recorded_stream(tmp_path)
        env = self.SPOOL_ENV
        if fault == "later line":  # trial 199, in the third block of lines read
            lines = path.read_bytes().split(b"\n")
            lines[199] = lines[199].rsplit(b",", 1)[0] + b",x"
            path.write_bytes(b"\n".join(lines))
        elif fault == "kind":  # its rewards reach 1
            env = {**env, "r_max": 0.5}
        elif fault == "shape":
            env = {**env, "T": 399}
        elif fault == "second block":  # after the first block's trace rows are written
            real = environments.SpooledStream.blocks

            def spoiled(stream):
                for k, block in enumerate(real(stream)):
                    if k == 1:
                        raise MemoryError()
                    yield block

            monkeypatch.setattr(environments.SpooledStream, "blocks", spoiled)
        elif fault == "copy":
            def no_space(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(shutil, "copyfile", no_space)
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0]))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(path)]) == code
        assert len(spools) == 1 and spools[0].closed
        if fault == "later line":
            assert capsys.readouterr().err.startswith("error: line 200: bad reward/cost: ")
        if code == 1:
            assert not out.exists()
        elif code == 2:
            assert list(out.iterdir()) == []

    def test_a_dropped_stream_closes_its_spool(self, tmp_path, spools):
        stream = read_stream(self.recorded_stream(tmp_path))
        assert len(spools) == 1 and not spools[0].closed
        del stream
        gc.collect()
        assert spools[0].closed

    def test_a_spool_that_cannot_be_made_exits_2_before_writing(self, tmp_path, capsys,
                                                                monkeypatch):
        path = self.recorded_stream(tmp_path)

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(environments, "TemporaryFile", no_space)
        cfg = self.write_config(tmp_path, good_config(environment=self.SPOOL_ENV, seeds=[0]))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(path)]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert not out.exists()

    def test_failed_stream_write_leaves_no_file(self, tmp_path, monkeypatch):
        def half_written(fh, rewards, costs, start):
            fh.write("1,0")
            raise OSError("disk full")

        monkeypatch.setattr(environments, "write_rows", half_written)
        cfg = self.write_config(tmp_path, good_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 2
        assert list(out.iterdir()) == []

    def test_replay_writes_back_the_bytes_it_read(self, tmp_path):
        # short reprs, CRLF line ends and a trailing blank line: a re-rendering
        # would keep none of them, and the traces and report must not care
        env = {"kind": "knapsack_01", "n": 2, "T": 3}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0, 1]))
        data = b"2,3,0.1,0.25\r\n1,0,0,-0.5,-0.1\r\n2,0,0,-1,-0.25\r\n3,0,0,-0.3,-0.7\r\n\r\n"
        hand = tmp_path / "hand.csv"
        hand.write_bytes(data)
        copy = tmp_path / "copy.csv"
        with closing(read_stream(hand)) as stream:  # rendered from memory, not copied
            write_stream(Stream(stream.action_set, *stacked(stream)), copy)
        assert copy.read_bytes() != data
        for stream, out in ((hand, "hand"), (copy, "copy")):
            argv = ["--config", cfg, "--out", str(tmp_path / out), "replay", "--stream", str(stream)]
            assert main(argv) == 0
        assert (tmp_path / "hand" / "stream.csv").read_bytes() == data
        assert (tmp_path / "copy" / "stream.csv").read_bytes() == copy.read_bytes()
        names = sorted(p.name for p in (tmp_path / "hand").iterdir())
        assert names == ["report.json", "stream.csv", "trace_seed0.csv", "trace_seed1.csv"]
        for name in ("report.json", "trace_seed0.csv", "trace_seed1.csv"):
            assert (tmp_path / "hand" / name).read_bytes() == (tmp_path / "copy" / name).read_bytes()

    def test_replay_into_the_input_directory_keeps_every_file(self, tmp_path):
        cfg = self.write_config(tmp_path, good_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["--config", cfg, "--out", str(out), "replay",
                     "--stream", str(out / "stream.csv")]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_replay_of_its_own_temporary_stream_exits_1_and_keeps_it(self, tmp_path, capsys):
        # a crashed run's leftover stream.csv.tmp, replayed into that directory: the
        # cleanup after a failed copy would delete it
        cfg = self.write_config(tmp_path, good_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        leftover = out / "stream.csv.tmp"
        shutil.copyfile(out / "stream.csv", leftover)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(leftover)]) == 1
        assert capsys.readouterr().err == (f"error: stream file {leftover} is this run's "
                                           f"temporary stream.csv.tmp\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_rename_leaves_no_old_report(self, tmp_path, monkeypatch):
        # the third rename is the report's, after the stream's and the one trace's
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, good_config(seeds=[0]))
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        real, calls = os.replace, []

        def fails_on_the_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("rename failed")
            return real(*args)

        monkeypatch.setattr(cli.os, "replace", fails_on_the_third_call)
        assert main(["--config", cfg, "--out", str(out), "run"]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["stream.csv", "trace_seed0.csv"]

    def test_run_beside_another_runs_trace_exits_1_and_keeps_its_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        first = self.write_config(tmp_path, good_config(seeds=[0, 1]))
        assert main(["--config", first, "--out", str(out), "run"]) == 0
        (out / "trace_seed7.csv.tmp").write_text("partial")  # a leftover never counts
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        second = self.write_config(tmp_path, good_config(seeds=[0]))
        assert main(["--config", second, "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err == f"error: output directory {out} holds another run's trace_seed1.csv\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same seeds, or more, replace every file of the earlier run
        more = self.write_config(tmp_path, good_config(seeds=[0, 1, 2]))
        assert main(["--config", more, "--out", str(out), "run"]) == 0
        assert json.loads((out / "report.json").read_text())["seeds"] == [0, 1, 2]

    @pytest.mark.parametrize("data, message", [
        ([], "config root must be an object, got list"),
        (good_config(environment=3), "invalid config: environment must be an object, got int"),
    ])
    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys, data, message):
        cfg = self.write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "run"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path}: ")

    def test_violated_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        # a comparator far above anything the learner earns
        def unbeatable(stream, alpha, delta):
            return ComparatorResult((0,), 1e9)

        monkeypatch.setattr(cli, "best_fixed_subset", unbeatable)
        cfg = self.write_config(tmp_path, good_config(bound_check=True))
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "run"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "best fixed subset: [0] discounted total 1e+09" in lines
        assert lines[-1] == "performance bound: VIOLATED"
        assert json.loads((tmp_path / "out" / "report.json").read_text())["bound_satisfied"] is False

    def test_failed_replay_write_leaves_no_file(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path, good_config())
        recorded = tmp_path / "run" / "stream.csv"
        assert main(["--config", cfg, "--out", str(recorded.parent), "run"]) == 0

        def half_copied(src, dst):
            data = Path(src).read_bytes()
            Path(dst).write_bytes(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(shutil, "copyfile", half_copied)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(recorded)]) == 2
        assert list(out.iterdir()) == []

    def test_replay_into_the_stream_directory_keeps_a_hand_written_stream(self, tmp_path):
        # CRLF and short values, which a re-rendering would not keep
        env = {"kind": "knapsack_01", "n": 2, "T": 3}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[0]))
        data = b"2,3,0.1,0.25\r\n1,0,0,-0.5,-0.1\r\n2,0,0,-1,-0.25\r\n3,0,0,-0.3,-0.7\r\n"
        out = tmp_path / "out"
        out.mkdir()
        (out / "stream.csv").write_bytes(data)
        assert main(["--config", cfg, "--out", str(out), "replay",
                     "--stream", str(out / "stream.csv")]) == 0
        assert (out / "stream.csv").read_bytes() == data
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "stream.csv",
                                                         "trace_seed0.csv"]

    @pytest.mark.parametrize("change", ["append", "rewrite"])
    def test_stream_changed_after_it_was_read_fails_with_no_file(self, tmp_path, capsys,
                                                                  monkeypatch, change):
        cfg = self.write_config(tmp_path, good_config())
        recorded = tmp_path / "run" / "stream.csv"
        assert main(["--config", cfg, "--out", str(recorded.parent), "run"]) == 0
        data = recorded.read_bytes()

        def read_then_change(path):
            stream = read_stream(path)
            if change == "append":
                recorded.write_bytes(data + b"\n")
            else:  # the same size, one digit changed, and another mtime
                recorded.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
                st = recorded.stat()
                os.utime(recorded, ns=(st.st_atime_ns, stream.source.identity[3] + 10**9))
            return stream

        monkeypatch.setattr(cli, "read_stream", read_then_change)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", str(recorded)]) == 2
        assert capsys.readouterr().err == f"error: stream file {recorded} changed after it was read\n"
        assert list(out.iterdir()) == []

    def test_non_regular_stream_file_exits_1_before_writing(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, good_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "replay", "--stream", os.devnull]) == 1
        assert capsys.readouterr().err == f"error: {os.devnull}: not a regular file\n"
        assert not out.exists()

    def test_failed_trace_write_leaves_no_file(self, tmp_path, monkeypatch):
        import budgetmax.cli as cli
        out = tmp_path / "out"
        real = cli.draw_trials
        calls = []

        def fails_on_the_second_call(*args):
            calls.append(args)
            if len(calls) == 2:
                # the first seed's rows of the first block are written by now
                rows = (out / "trace_seed0.csv.tmp").read_text().splitlines()
                assert rows[0] == TRACE_HEADER and len(rows) > 1
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(cli, "draw_trials", fails_on_the_second_call)
        cfg = self.write_config(tmp_path, good_config())
        assert main(["--config", cfg, "--out", str(out), "run"]) == 2
        assert list(out.iterdir()) == []

    def test_failed_report_write_leaves_no_file(self, tmp_path, monkeypatch):
        real = Path.write_text

        def half_written(path, data, *args, **kwargs):
            if path.name != "report.json.tmp":
                return real(path, data, *args, **kwargs)
            real(path, data[:len(data) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_written)
        cfg = self.write_config(tmp_path, good_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 2
        assert list(out.iterdir()) == []

    def test_run_and_replay_leave_no_temporary_file(self, tmp_path):
        cfg = self.write_config(tmp_path, good_config())
        run, replay = tmp_path / "run", tmp_path / "replay"
        assert main(["--config", cfg, "--out", str(run), "run"]) == 0
        assert main(["--config", cfg, "--out", str(replay), "replay",
                     "--stream", str(run / "stream.csv")]) == 0
        for out in (run, replay):
            names = sorted(p.name for p in out.iterdir())
            assert names == ["report.json", "stream.csv", "trace_seed0.csv",
                             "trace_seed1.csv", "trace_seed2.csv"]

    def test_report_profit_is_the_trace_total(self, tmp_path):
        env = {"kind": "random_adversarial", "n": 6, "T": 60, "seed": 9}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[4, 0, 7]))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        report = json.loads((out / "report.json").read_text())
        for seed, profit in zip(report["seeds"], report["per_seed_profit"]):
            last = (out / f"trace_seed{seed}.csv").read_text().splitlines()[-1]
            assert float(last.split(",")[3]).hex() == profit.hex()

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("T", True), ("seed", False), ("shift_segments", True),
        ("r_max", True), ("beta_max", True), ("c_max", True),
        ("r_max", math.inf), ("beta_max", math.nan), ("c_max", math.inf), ("c_max", -math.inf),
        ("cost_range", [0.0, math.inf]), ("value_range", [math.nan, 1.0]),
        ("value_range", [0.0, True]),
        ("c_max", 1e308),  # finite, but rng.uniform(-c_max, c_max) overflows
    ])
    def test_bool_or_non_finite_field_exits_1_before_writing(self, tmp_path, capsys, field, value):
        # JSON's Infinity and NaN parse to floats, and true is an int to Python
        env = {"kind": "random_adversarial", "n": 4, "T": 20, field: value}
        cfg = self.write_config(tmp_path, good_config(environment=env, seeds=[1, 1]))
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert f"{field} must be" in err and "seeds must be distinct" in err
        assert not out.exists()

    def test_python_dash_m_runs(self, tmp_path):
        cfg = self.write_config(tmp_path, good_config())
        src = str(Path(budgetmax.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "budgetmax.cli", "--config", cfg, "--out", "x", "run"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "mean cumulative profit" in proc.stdout
        assert (tmp_path / "x" / "report.json").exists()

    def test_probcheck_exact_marginal_on_bound_passes(self, capsys):
        # instance seed 3 has an exact marginal equal to its upper bound; a
        # Monte Carlo frequency just above it must not fail the sandwich
        assert main(["--seed", "3", "probcheck", "--actions", "40", "--samples", "3000000"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("seed, actions", [(0, 100), (11, 40)])
    def test_probcheck_rare_action_passes(self, capsys, seed, actions):
        # each instance has an action with an exact marginal of 1e-4 to 1.5e-4,
        # which 20000 samples can miss; a frequency of 0 has a standard error
        # of 0, so only the exact marginal's standard error allows for the miss
        argv = ["--seed", str(seed), "probcheck", "--actions", str(actions), "--samples", "20000"]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("probcheck: PASS\n")

    @pytest.mark.parametrize("scale, verdict", [(0.0, "PASS"), (1.5, "FAIL")])
    def test_probcheck_tests_against_the_exact_standard_error(self, capsys, monkeypatch,
                                                              scale, verdict):
        # the estimate of the rarest action replaced by 0 (a sample that
        # missed it) passes; 1.5 times every exact marginal fails
        def estimate(w, aset, n_samples, seed):
            exact = cli.exact_selection_probs(w, aset)
            freq = exact.copy()
            freq[np.argmin(np.where(exact > 0.0, exact, np.inf))] = 0.0
            if scale:
                freq = scale * exact
            return freq

        monkeypatch.setattr(cli, "estimate_selection_probs", estimate)
        assert main(["probcheck", "--actions", "100", "--samples", "20000"]) == (verdict == "FAIL")
        assert capsys.readouterr().out.endswith(f"probcheck: {verdict}\n")

    def test_probcheck_smoke(self, capsys):
        assert main(["--seed", "5", "probcheck", "--actions", "4", "--samples", "20000"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_smoke(self, capsys):
        assert main(["--seed", "5", "gradcheck", "--instances", "12"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag, value", [
        (["gradcheck", "--instances", "0"], "--instances", 0),
        (["gradcheck", "--instances", "-3"], "--instances", -3),
        (["probcheck", "--samples", "0"], "--samples", 0),
        (["probcheck", "--actions", "-2"], "--actions", -2),
        (["probcheck", "--actions", "0", "--samples", "20000"], "--actions", 0),
    ])
    def test_count_below_one_exits_1_before_any_work(self, capsys, argv, flag, value):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be a positive integer, got {value}\n"

    @pytest.mark.parametrize("command", [["gradcheck"], ["probcheck", "--samples", "20000"]])
    def test_negative_seed_exits_1_before_any_work(self, capsys, command):
        assert main(["--seed", "-1", *command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"

    def test_count_of_one_runs(self, capsys):
        assert main(["gradcheck", "--instances", "1"]) == 0
        assert main(["probcheck", "--actions", "1", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck: 1 instances" in out and "probcheck: n=1, samples=20000" in out

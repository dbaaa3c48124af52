import hashlib
import json
import logging
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest

from xorcert import prg
from xorcert.cli import main
from xorcert.core import ValidationError, bit_of_sign, instance_from_json
from xorcert.refuter import RefuteParams

from helpers import avoid_result_from_obj

ROOT = Path(__file__).resolve().parent.parent


def run_subprocess(*argv, timeout=60):
    """Run a Python file or module from the source tree in a new process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    assert run("gen", "circuit", "--kind", "junta", "--n", "4", "--t", "2",
               "--m", "30", "--seed", "3", "--out", str(path)) == 0
    return path


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    assert run("gen", "instance", "--n", "4", "--k", "2", "--m", "6",
               "--seed", "1", "--out", str(path)) == 0
    return path


class TestExitCodes:
    def test_refute_contradictory_pair_exits_zero(self, tmp_path):
        inst = tmp_path / "contra.json"
        inst.write_text('{"k": 2, "n": 2, "edges": [[0, 1], [0, 1]], "rhs": [1, -1]}')
        out = tmp_path / "cert.json"
        assert run("refute", "--instance", str(inst), "--out", str(out)) == 0
        cert = json.loads(out.read_text())
        assert cert["bound"] == 0.0
        assert cert["status"] == "certified"

    def test_avoid_budget_zero_exits_two(self, tmp_path, circuit_file):
        # strip parity gates so the fast path cannot fire
        data = json.loads(circuit_file.read_text())
        rc = run("avoid", "--circuit", str(circuit_file), "--gen",
                 "biased:m=30,s=6", "--budget", "0")
        assert rc in (0, 2)
        if rc == 0:
            return  # a parity dependency legitimately succeeded
        assert data["m"] == 30

    def test_malformed_json_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("refute", "--instance", str(bad)) == 1

    def test_missing_file_exits_one(self):
        assert run("refute", "--instance", "/nonexistent/x.json") == 1

    @pytest.mark.parametrize("knobs", [
        '{"r": "2"}',
        '{"ell": 4.0}',
        '{"mode": "fast"}',
        '{"dense_cap": null}',
        '{"work_flops": "1e9"}',
        '{"split_weights": 1}',
        '[2]',
    ])
    def test_params_of_wrong_type_exit_one(self, tmp_path, instance_file, knobs):
        params = tmp_path / "params.json"
        params.write_text(knobs)
        assert run("refute", "--instance", str(instance_file),
                   "--params", str(params)) == 1

    def test_dim_cap_is_not_a_knob(self, tmp_path, instance_file, caplog):
        assert run("refute", "--instance", str(instance_file), "--dim-cap", "5") == 1
        params = tmp_path / "params.json"
        params.write_text('{"dim_cap": 5}')
        assert run("refute", "--instance", str(instance_file), "--params", str(params)) == 1
        assert "unknown certification knobs: ['dim_cap']" in caplog.text

    @pytest.mark.parametrize("text", [
        '{"k": 2, "edges": [[0, 1]]}',
        '{"k": 2, "n": "3", "edges": [[0, 1]]}',
        '{"k": 2, "n": 3, "edges": [[0, "1"]]}',
        '{"k": 2, "n": 3, "edges": [[0, 1]], "weights": [{"num": 1}]}',
        '[]',
    ])
    def test_malformed_instance_exits_one(self, tmp_path, text):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        assert run("refute", "--instance", str(inst)) == 1

    @pytest.mark.parametrize("text", [
        '{"n": 2, "w": 1, "t": 1, "m": 1}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "junta", "inputs": [0]}]}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "tree", "root": {"leaf": "x"}}]}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "tree", "root": {"query": 0}}]}',
        '{"n": 2, "w": 1, "t": 2, "m": 1, "gates": [{"kind": "junta", "inputs": [0, true], "table": "0111"}]}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "junta", "inputs": [0.5], "table": "01"}]}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "junta", "inputs": [0], "table": "012"}]}',
        '{"n": 2, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "junta", "inputs": [0], "table": "011"}]}',
    ])
    def test_malformed_circuit_exits_one(self, tmp_path, text):
        circ = tmp_path / "circuit.json"
        circ.write_text(text)
        assert run("avoid", "--circuit", str(circ), "--gen", "biased:m=1,s=4") == 1

    @pytest.mark.parametrize("kind, n, t", [("junta", 3, 5), ("parity", 3, 0), ("tree", 0, 2)])
    def test_impossible_circuit_shape_exits_one(self, tmp_path, kind, n, t):
        out = tmp_path / "circuit.json"
        assert run("gen", "circuit", "--kind", kind, "--n", str(n), "--t", str(t),
                   "--m", "4", "--seed", "1", "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("n, k, m", [(3, 5, 2), (-1, 0, 1), (4, -1, 2), (4, 2, -1)])
    def test_impossible_instance_shape_exits_one(self, tmp_path, n, k, m):
        out = tmp_path / "instance.json"
        assert run("gen", "instance", "--n", str(n), "--k", str(k), "--m", str(m),
                   "--seed", "1", "--out", str(out)) == 1
        assert not out.exists()

    def test_fan_in_above_the_transform_cap_exits_one(self, tmp_path, caplog):
        circ = tmp_path / "wide.json"
        gate = {"kind": "junta", "inputs": list(range(17)), "table": "0110" * (1 << 15)}
        circ.write_text(json.dumps({"n": 17, "w": 1, "t": 17, "m": 1, "gates": [gate]}))
        assert run("avoid", "--circuit", str(circ), "--gen", "biased:m=1,s=4") == 1
        assert "junta fan-in 17 exceeds the transform cap 16" in caplog.text

    @pytest.mark.parametrize("t", [40, 10 ** 20])
    def test_declared_t_past_the_transform_cap_exits_one(self, tmp_path, caplog, t):
        """The junta split has a bucket per proper subset of the t positions,
        so a t far above the widest gate is named before anything is sized
        by it."""
        circ = tmp_path / "and.json"
        gate = {"kind": "junta", "inputs": [0, 1], "table": "0001"}
        circ.write_text(json.dumps({"n": 2, "w": 1, "t": t, "m": 1, "gates": [gate]}))
        assert run("avoid", "--circuit", str(circ), "--gen", "biased:m=1,s=4") == 1
        assert f"junta split over t = {t} positions exceeds the transform cap 16" in caplog.text

    @pytest.mark.parametrize("w", [20000, 10 ** 20])
    def test_huge_word_width_exits_one(self, tmp_path, caplog, w):
        """2^w past the 4,300-digit limit, or past any memory, is named as a
        power."""
        circ = tmp_path / "wide.json"
        root = {"query": 0, "children": [{"leaf": 0}]}
        circ.write_text(json.dumps(
            {"n": 1, "w": w, "t": 1, "m": 1, "gates": [{"kind": "tree", "root": root}]}
        ))
        assert run("reduce", "--circuit", str(circ), "--out-dir", str(tmp_path / "out")) == 1
        assert f"gate 0: node has 1 children, expected 2^{w}" in caplog.text

    @pytest.mark.parametrize("cmd", ["reduce", "avoid", "oracle"])
    @pytest.mark.parametrize(
        "w, t, message",
        [
            (1, 40, "ensemble over t*w = 40: 4^(t*w) keys exceed the cap 2^16"),
            (10 ** 20, 0, f"ensemble over w = {10 ** 20}: 4^w keys per layer exceed the cap 2^16"),
        ],
        ids=["t=40", "w=10^20"],
    )
    def test_ensemble_past_the_key_cap_exits_one(self, tmp_path, caplog, cmd, w, t, message):
        """A circuit of leaf-only trees is valid at any t and w, and its
        ensemble's 4^(t*w) keys are named before anything is sized by them."""
        circ = tmp_path / "leaf.json"
        gate = {"kind": "tree", "root": {"leaf": 0}}
        circ.write_text(json.dumps({"n": 1, "w": w, "t": t, "m": 1, "gates": [gate]}))
        argv = {
            "reduce": ("reduce", "--circuit", str(circ), "--out-dir", str(tmp_path / "out")),
            "avoid": ("avoid", "--circuit", str(circ), "--gen", "biased:m=1,s=4"),
            "oracle": ("oracle", "decomp", "--circuit", str(circ), "--x", "0", "--b", "0",
                       "--out", str(tmp_path / "res.json")),
        }[cmd]
        assert run(*argv) == 1
        assert message in caplog.text

    def test_junta_ensemble_past_the_key_cap_exits_one(self, tmp_path, caplog):
        """A valid t = 16 junta circuit reaches the ensemble through its
        gates as trees: 4^16 keys."""
        circ = tmp_path / "junta.json"
        gate = {"kind": "junta", "inputs": list(range(16)), "table": "01" * (1 << 15)}
        circ.write_text(json.dumps({"n": 16, "w": 1, "t": 16, "m": 1, "gates": [gate]}))
        assert run("reduce", "--circuit", str(circ), "--out-dir", str(tmp_path / "out")) == 1
        assert "ensemble over t*w = 16: 4^(t*w) keys exceed the cap 2^16" in caplog.text

    @pytest.mark.parametrize("depth", [495, 3000, 100_000])
    def test_deeply_nested_json_exits_one(self, tmp_path, caplog, instance_file, depth):
        """JSON nested past what the decoder's recursion allows is an error
        of the file, for a circuit, an instance and the knobs alike."""
        nested = "[" * (2 * depth) + "]" * (2 * depth)  # as deep as a tree level's dict and list
        circ = tmp_path / "deep.json"
        circ.write_text(
            '{"n": 1, "w": 1, "t": 1, "m": 1, "gates": [{"kind": "tree", "root": '
            + '{"query": 0, "children": [' * depth + '{"leaf": 0}' + "]}" * depth + "}]}"
        )
        assert run("reduce", "--circuit", str(circ), "--out-dir", str(tmp_path / "out")) == 1
        inst = tmp_path / "deep_instance.json"
        inst.write_text('{"k": 2, "n": 2, "edges": ' + nested + "}")
        assert run("refute", "--instance", str(inst)) == 1
        params = tmp_path / "deep_params.json"
        params.write_text('{"r": ' + nested + "}")
        assert run("refute", "--instance", str(instance_file), "--params", str(params)) == 1
        for what in ("circuit", "instance", "params"):
            assert f"{what} JSON is nested too deeply to decode" in caplog.text

    def test_usage_error_exits_one(self):
        assert run("bogus") == 1
        assert run("avoid", "--circuit", "x.json") == 1  # no --gen

    @pytest.mark.parametrize("eps", ["abc", "1/0", "-1"])
    def test_bad_eps_exits_one(self, circuit_file, eps):
        assert run("avoid", "--circuit", str(circuit_file), "--gen",
                   "biased:m=30,s=6", "--eps", eps) == 1

    @pytest.mark.parametrize("spec", ["biased:m=4,eps=1/0", "biased:m=4,eps=0^-1"])
    def test_zero_division_in_spec_exits_one(self, spec):
        assert run("gen-prg", "--spec", spec) == 1

    @pytest.mark.parametrize("spec, message", [
        ("biased:m=4,s=3,x=1", "unknown key 'x'"),
        ("biased:m=4,m=8,s=3", "repeated key 'm'"),
        ("biased:m=4,s=3,eps=1/2", "give s or eps, not both"),
        ("kwise:k=2,m=4,s=2,so=5", "unknown key 'so'"),
    ])
    def test_bad_spec_key_exits_one(self, tmp_path, caplog, spec, message):
        out = tmp_path / "prg.txt"
        assert run("gen-prg", "--spec", spec, "--out", str(out)) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--budget", "-3", "budget must be at least 0, got -3"),
        ("--wall-clock", "-1", "wall clock must be a number of seconds >= 0, got -1.0"),
        ("--wall-clock", "nan", "wall clock must be a number of seconds >= 0, got nan"),
    ])
    def test_senseless_avoid_knob_exits_one(self, circuit_file, caplog, flag, value, message):
        assert run("avoid", "--circuit", str(circuit_file), "--gen",
                   "biased:m=30,s=6", flag, value) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("flags, message", [
        (["--dense-cap", "-1"], "dense cap must be at least 1, got -1"),
        (["--dense-cap", "0"], "dense cap must be at least 1, got 0"),
        (["--work-flops", "nan", "--mode", "trace"], "work flops must be a finite number > 0, got nan"),
        (["--work-flops", "-5", "--mode", "trace"], "work flops must be a finite number > 0, got -5.0"),
        (["--work-flops", "inf"], "work flops must be a finite number > 0, got inf"),
        (["--r", "-1"], "level r must be at least 0, got -1"),
    ])
    def test_senseless_refute_knob_exits_one(self, instance_file, caplog, flags, message):
        assert run("refute", "--instance", str(instance_file), *flags) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("knobs, message", [
        ('{"dense_cap": -1}', "dense cap must be at least 1, got -1"),
        ('{"work_flops": 0}', "work flops must be a finite number > 0, got 0"),
        ('{"work_flops": 1e400}', "work flops must be a finite number > 0, got inf"),
        ('{"r": -2}', "level r must be at least 0, got -2"),
    ])
    def test_senseless_refute_knob_in_json_exits_one(
        self, tmp_path, instance_file, caplog, knobs, message
    ):
        params = tmp_path / "params.json"
        params.write_text(knobs)
        assert run("refute", "--instance", str(instance_file), "--params", str(params)) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("knobs, message", [
        ({"dense_cap": 0}, "dense cap must be at least 1, got 0"),
        ({"work_flops": float("nan")}, "work flops must be a finite number > 0, got nan"),
        ({"r": -1}, "level r must be at least 0, got -1"),
        ({"mode": "fast"}, "mode must be one of trace, spectral, auto, got 'fast'"),
    ])
    def test_senseless_refute_knob_in_python_raises(self, knobs, message):
        with pytest.raises(ValidationError) as info:
            RefuteParams(**knobs)
        assert message in str(info.value)

    @pytest.mark.parametrize("num, log_den", [((1 << 1099) + 1, 1100), (3, 1100)],
                             ids=["past-the-float-range", "below-the-smallest-float"])
    def test_fine_scale_weights_certify(self, tmp_path, num, log_den):
        inst = tmp_path / "fine.json"
        edges = [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]
        inst.write_text(json.dumps({
            "k": 2, "n": 4, "edges": edges, "rhs": [1, -1, 1, 1, -1],
            "weights": [{"num": num, "log_den": log_den}] * len(edges),
        }))
        out = tmp_path / "cert.json"
        assert run("refute", "--instance", str(inst), "--out", str(out)) == 0
        cert = json.loads(out.read_text())
        assert cert["status"] == "certified"
        parsed = instance_from_json(inst.read_text())
        value = max(abs(parsed.value(x)) for x in product((1, -1), repeat=4))
        assert Fraction(cert["bound"]) >= value > 0

    def test_unit_copies_past_the_float_range_exit_two(self, tmp_path):
        inst = tmp_path / "fine.json"
        inst.write_text(json.dumps({
            "k": 2, "n": 4, "edges": [[0, 1], [1, 2]], "rhs": [1, -1],
            "weights": [{"num": 1, "log_den": 1100}, {"num": 1, "log_den": 0}],
        }))
        params = tmp_path / "params.json"
        params.write_text('{"split_weights": true}')
        out = tmp_path / "cert.json"
        assert run("refute", "--instance", str(inst), "--params", str(params), "--out", str(out)) == 2
        cert = json.loads(out.read_text())
        assert cert["status"] == "uncertain" and cert["bound"] == 1.0
        assert run("refute", "--instance", str(inst), "--out", str(out)) == 0

    @pytest.mark.parametrize("log_den", [10 ** 20, -(10 ** 20)], ids=["huge", "huge-negative"])
    def test_huge_weight_exponent_exits_one(self, tmp_path, caplog, log_den):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "k": 2, "n": 4, "edges": [[0, 1]], "weights": [{"num": 1, "log_den": log_den}], "rhs": [1],
        }))
        assert run("refute", "--instance", str(inst)) == 1
        assert f"edge 0: weight log_den {log_den} outside [-65536, 65536]" in caplog.text

    def test_negative_enumerate_exits_one(self, tmp_path, caplog):
        out = tmp_path / "prg.txt"
        assert run("gen-prg", "--spec", "biased:m=4,s=3", "--enumerate", "-1",
                   "--out", str(out)) == 1
        assert "--enumerate must be at least 0, got -1" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("x", ["0,5,1", "0,-1,1", "0,1"])
    def test_decomp_input_out_of_range_exits_one(self, tmp_path, x):
        circ = tmp_path / "tree.json"
        assert run("gen", "circuit", "--kind", "tree", "--n", "3", "--w", "1",
                   "--t", "2", "--m", "3", "--seed", "5", "--out", str(circ)) == 0
        assert run("oracle", "decomp", "--circuit", str(circ), "--x", x, "--b", "010") == 1


class TestArtifacts:
    def test_determinism_byte_identical(self, tmp_path, circuit_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            run("avoid", "--circuit", str(circuit_file), "--gen",
                "biased:m=30,s=6", "--budget", "4", "--out", str(out))
        assert out1.read_bytes() == out2.read_bytes()

    def test_instance_roundtrip(self, instance_file):
        from xorcert.core import instance_from_json

        inst = instance_from_json(instance_file.read_text())
        assert inst.m == 6

    def test_reduce_writes_ensemble(self, tmp_path):
        from xorcert.core import instance_from_json

        circ = tmp_path / "tree.json"
        run("gen", "circuit", "--kind", "tree", "--n", "2", "--w", "1",
            "--t", "2", "--m", "3", "--seed", "5", "--out", str(circ))
        out_dir = tmp_path / "ens"
        assert run("reduce", "--circuit", str(circ), "--out-dir", str(out_dir)) == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index["keys"]) == 16
        for entry in index["keys"]:
            inst = instance_from_json((out_dir / entry["file"]).read_text())
            assert inst.m == 3
            assert inst.arity == entry["arity"]

    @pytest.mark.parametrize("kind, shape, digest", [
        ("tree", ["--n", "3", "--w", "2", "--t", "2", "--m", "6", "--seed", "7"],
         "fb9ccb1fac93d5ed031116a695dc790ebc478994fc0420bc29bb62e972f40e77"),
        ("junta", ["--n", "4", "--t", "2", "--m", "5", "--seed", "3"],
         "490b160e5a7c686510a3632fc8d543c88036a70f32737e02055fca2304d3a09f"),
    ])
    def test_reduce_files_pinned(self, tmp_path, kind, shape, digest):
        """The scheme files of two fixed circuits, recorded while every key's
        dense scheme was built in ``group_characters``."""
        circ = tmp_path / "c.json"
        assert run("gen", "circuit", "--kind", kind, *shape, "--out", str(circ)) == 0
        out_dir = tmp_path / "ens"
        assert run("reduce", "--circuit", str(circ), "--out-dir", str(out_dir)) == 0
        h = hashlib.sha256()
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == digest

    def test_avoid_artifact_reparses(self, tmp_path, circuit_file):
        out = tmp_path / "res.json"
        run("avoid", "--circuit", str(circuit_file), "--gen", "biased:m=30,s=6",
            "--budget", "4", "--out", str(out))
        obj = json.loads(out.read_text())
        result = avoid_result_from_obj(obj)
        assert result.to_obj(obj["wall_time"]) == obj

    def test_gen_prg_lines(self, tmp_path):
        out = tmp_path / "prg.txt"
        assert run("gen-prg", "--spec", "kwise:k=2,m=6,s=3", "--enumerate", "4",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(len(line) == 6 and set(line) <= {"0", "1"} for line in lines)

    def test_gen_prg_enumerates_a_seed_space_past_the_cap(self, tmp_path):
        # 2^36 seeds: the first 8 are emitted without listing the others
        out = tmp_path / "prg.txt"
        assert run("gen-prg", "--spec", "kwise:k=6,m=64,s=6", "--enumerate", "8",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 8
        assert all(len(line) == 64 and set(line) <= {"0", "1"} for line in lines)

    @pytest.mark.parametrize("spec", ["kwise:k=6,m=64,s=6", "biased:m=30,s=6"])
    def test_gen_prg_enumerates_in_seed_order(self, tmp_path, spec):
        # the README's example first: the seeds that avoid tries first, in
        # that order, none of which samples a constant string
        out = tmp_path / "prg.txt"
        assert run("gen-prg", "--spec", spec, "--enumerate", "8", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        gen = prg.parse_spec(spec)
        assert lines == [
            "".join(str(bit_of_sign(s)) for s in prg.sample_int(gen, seed))
            for seed in islice(prg.seed_order(gen), 8)
        ]
        assert not any(len(set(line)) == 1 for line in lines)

    @pytest.mark.parametrize("n, ell", [(1, 2), (4, 6)])
    def test_subexp_draws_targets_at_the_default_ell(self, tmp_path, caplog, n, ell):
        # default_ell(2, n): 2 ceil(2 ln n), floored at 2
        circ = tmp_path / "circuit.json"
        assert run("gen", "circuit", "--kind", "junta", "--n", str(n), "--t", "1",
                   "--m", "6", "--seed", "1", "--out", str(circ)) == 0
        caplog.set_level(logging.INFO)
        assert run("avoid", "--circuit", str(circ), "--subexp", "--r", "2",
                   "--budget", "4", "--out", str(tmp_path / "res.json")) in (0, 2)
        assert f"kwise generator at independence {ell}" in caplog.text


class TestOracleCommands:
    def test_val(self, tmp_path):
        inst = tmp_path / "one.json"
        inst.write_text('{"k": 2, "n": 2, "edges": [[0, 1]], "rhs": [1]}')
        out = tmp_path / "val.json"
        assert run("oracle", "val", "--instance", str(inst), "--out", str(out)) == 0
        assert json.loads(out.read_text()) == {"val": [1, 1]}

    def test_member_and_distance(self, tmp_path, circuit_file):
        out = tmp_path / "res.json"
        assert run("oracle", "member", "--circuit", str(circuit_file),
                   "--y", "0" * 30, "--out", str(out)) == 0
        assert isinstance(json.loads(out.read_text())["member"], bool)
        assert run("oracle", "distance", "--circuit", str(circuit_file),
                   "--b", "0" * 30, "--out", str(out)) == 0
        num, den = json.loads(out.read_text())["distance"]
        assert 0 <= num <= den

    def test_bias_and_independence(self, tmp_path):
        out = tmp_path / "res.json"
        assert run("oracle", "bias", "--spec", "biased:m=4,s=4",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["bias"] == [3, 16]
        assert run("oracle", "independence", "--spec", "kwise:k=2,m=4,s=2",
                   "--k", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["deviation"] == [0, 1]

    def test_decomp(self, tmp_path):
        circ = tmp_path / "tree.json"
        run("gen", "circuit", "--kind", "tree", "--n", "2", "--w", "1",
            "--t", "2", "--m", "3", "--seed", "5", "--out", str(circ))
        out = tmp_path / "res.json"
        assert run("oracle", "decomp", "--circuit", str(circ),
                   "--x", "0,1", "--b", "010", "--out", str(out)) == 0
        assert json.loads(out.read_text())["residual"] == [0, 1]


def test_huge_trace_power_is_capped(instance_file):
    # the exact root check of an ell of 10^11 would not finish; the cap is 1024
    proc = run_subprocess("-m", "xorcert.cli", "refute", "--instance", str(instance_file),
                          "--mode", "trace", "--ell", "100000000000")
    assert proc.returncode in (0, 2), proc.stderr
    assert json.loads(proc.stdout)["ell"] == 1024


# what scripts/output_digest.py --seeds 1 --passes 2 prints
DIGESTS_SEED_1 = """\
refute-even\tseed 1\t88b3cae8a1aaac1975319b659a652c23eccabc9dc377fbd5b091a973f98b9152
refute-odd\tseed 1\tc0a097bbadc4d4768eccb02617524ea9c8c74fdf0554ad5bd09f1665aa2407a2
remote-tree\tseed 1\t246aa830d3f29a9489dccfbf14a84cd0dd2f5f0f7f0dac04fc097d7f1dc828ca
avoid-junta\tseed 1\t9388e12a3896815db65f54beb46e07c35324857d3fa7a9e32910ad32fed29eab
remote-tree-odd\tseed 1\tcb6e5e68d6353d34481a628e216ca9679eaa374097ea16c81db5d41ff86a1416
remote-tree-trace\tseed 1\t57b7b8c085100f4e37ef03f03c246af895e91f04fe8819be319d338d27bf7af8
refute-wide\tseed 1\t1cc4b41fa027be8b808133dfd91eec80a1517a4f341c0c4ac355efeed2cc7b6a
shared-stack\tseed 1\t5d57314dd8c6bd33de9f695b15cccb9657f7cafc7e51bb0da88230f23967724d
kikuchi-shapes\tseed 1\t164b97ed07b6862b8f425392264cd4d026727c8e551a9f93c6067d49f7554d8c
"""


def test_output_digests_are_pinned():
    """Every workload's outputs at seed 1, on a cold pass and a warm one,
    are byte-identical to the recorded ones. Re-record these lines only
    together with a before/after table of the certificates that moved."""
    script = ROOT / "scripts" / "output_digest.py"
    proc = run_subprocess(str(script), "--seeds", "1", "--passes", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGESTS_SEED_1


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_help_runs(script):
    proc = run_subprocess(str(script), "--help")
    assert proc.returncode == 0, proc.stderr

"""The trace schema and synthetic generators: format round-trips, corrupt
inputs, generator determinism (see docs/TRACES.md)."""

import gzip
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TraceParams
from repro.harness.experiment import ExperimentConfig
from repro.traces import (
    Trace,
    TraceFormatError,
    available_synth_workloads,
    generate_trace,
    make_synth_workload,
    parse_synth_source,
    read_trace,
    record_run,
    register_synth_workload,
    trace_file_hash,
    write_trace,
)
from repro.traces.schema import decode_box, decode_root, validate_header, validate_record
from repro.traces.synth import MovingHotspot, SyntheticWorkload, disjoint_boxes

SMALL = ExperimentConfig(procs_per_group=1, steps=2, domain_cells=16,
                         max_levels=3)


@pytest.fixture(scope="module")
def recorded():
    """One small recorded trace, shared by the whole module."""
    _, trace = record_run(SMALL, "distributed")
    return trace


class TestRoundTrip:
    def test_write_read_is_identity(self, recorded, tmp_path):
        path = tmp_path / "t.trace.jsonl.gz"
        write_trace(recorded, path)
        assert read_trace(path) == recorded

    def test_write_read_write_is_byte_identical(self, recorded, tmp_path):
        """The determinism contract: identical traces, identical bytes --
        including across a read/write cycle and across file names."""
        p1 = tmp_path / "first.trace.jsonl.gz"
        p2 = tmp_path / "second-name.trace.jsonl.gz"
        write_trace(recorded, p1)
        write_trace(read_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert trace_file_hash(p1) == trace_file_hash(p2)

    def test_header_carries_provenance(self, recorded):
        h = recorded.header
        assert h["app"] == "ShockPool3D"
        assert h["scheme"] == "distributed"
        assert h["nsteps"] == SMALL.steps
        assert h["config_hash"]
        assert h["salt"].startswith("repro-")

    def test_describe_mentions_the_essentials(self, recorded):
        text = recorded.describe()
        assert "ShockPool3D" in text and "2 steps" in text

    def test_default_replay_steps(self, recorded, tmp_path):
        from repro.traces import TraceFormatError, default_replay_steps

        path = tmp_path / "t.trace.jsonl.gz"
        write_trace(recorded, path)
        # file traces replay in full; synthetic sources get the harness
        # default of 4 (they have no inherent length)
        assert default_replay_steps(path) == recorded.nsteps
        assert default_replay_steps("synth:hotspot") == 4
        with pytest.raises(TraceFormatError):
            default_replay_steps(tmp_path / "missing.trace.jsonl.gz")


class TestCorruptInputs:
    def _write(self, tmp_path, lines, name="bad.trace.jsonl.gz"):
        path = tmp_path / name
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            read_trace(tmp_path / "nope.trace.jsonl.gz")

    def test_not_gzip(self, tmp_path):
        path = tmp_path / "plain.trace.jsonl.gz"
        path.write_text("this is not gzip\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("")
        with pytest.raises(TraceFormatError, match="empty"):
            read_trace(path)

    def test_wrong_format_marker(self, tmp_path):
        path = self._write(tmp_path, [{"format": "other", "version": 1}])
        with pytest.raises(TraceFormatError, match="not a repro workload trace"):
            read_trace(path)

    def test_future_version_rejected(self, recorded, tmp_path):
        header = dict(recorded.header, version=999)
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(path)

    def test_missing_header_field(self, recorded, tmp_path):
        header = dict(recorded.header)
        del header["root_wpc"]
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceFormatError, match="root_wpc"):
            read_trace(path)

    def test_truncated_body_detected(self, recorded, tmp_path):
        """Dropping records after the fact must trip the footer count."""
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        with gzip.open(good, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        clipped = lines[:5] + [lines[-1]]  # keep header + footer
        bad = tmp_path / "clipped.trace.jsonl.gz"
        with gzip.open(bad, "wt", encoding="ascii") as fh:
            fh.write("\n".join(clipped) + "\n")
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(bad)

    def test_missing_footer_detected(self, recorded, tmp_path):
        path = self._write(tmp_path,
                           [recorded.header] + recorded.records[:3])
        with pytest.raises(TraceFormatError, match="footer"):
            read_trace(path)

    def test_truncated_gzip_stream(self, recorded, tmp_path):
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        data = good.read_bytes()
        bad = tmp_path / "cut.trace.jsonl.gz"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_invalid_json_line(self, recorded, tmp_path):
        good = tmp_path / "good.trace.jsonl.gz"
        write_trace(recorded, good)
        with gzip.open(good, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[2] = "{not json"
        bad = tmp_path / "badjson.trace.jsonl.gz"
        with gzip.open(bad, "wt", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            read_trace(bad)

    def test_unknown_record_op(self):
        with pytest.raises(TraceFormatError, match="unknown op"):
            validate_record({"op": "teleport"}, 0)

    def test_record_missing_field(self):
        with pytest.raises(TraceFormatError, match="missing field"):
            validate_record({"op": "solve", "l": 0}, 3)

    def test_bool_header_field_rejected(self, recorded):
        header = dict(recorded.header, nsteps=True)
        with pytest.raises(TraceFormatError, match="wrong type"):
            validate_header(header)

    def test_write_validates(self, recorded, tmp_path):
        broken = Trace(header=dict(recorded.header),
                       records=[{"op": "nope"}])
        with pytest.raises(TraceFormatError):
            write_trace(broken, tmp_path / "x.trace.jsonl.gz")


def _hotspot_trace():
    """``synth:hotspot`` at 16^3, 3 levels, seed 0, 2 steps, 4 procs."""
    workload = make_synth_workload("hotspot", domain_cells=16, max_levels=3,
                                   ndim=3, seed=0)
    return generate_trace(workload, steps=2, nprocs=4)


#: (where, field, value, message): one mutated field each; ``where`` is
#: "header" or the op whose first record is mutated
FIELD_MUTATIONS = [
    ("header", "root_wpc", float("nan"), "'root_wpc' must be a finite number >= 0"),
    ("header", "root_wpc", -1.0, "'root_wpc' must be a finite number >= 0"),
    ("header", "dt0", float("inf"), "'dt0' must be a finite number > 0"),
    ("regrid", "wpc", "abc", "field 'wpc' must be a finite number >= 0"),
    ("regrid", "wpc", float("nan"), "field 'wpc' must be a finite number >= 0"),
    ("regrid", "wpc", -0.5, "field 'wpc' must be a finite number >= 0"),
    ("regrid", "l", "x", "field 'l' must be an integer"),
    ("regrid", "t", float("inf"), "field 't' must be a finite number"),
    ("regrid", "b", 5, "field 'b' must be a list of boxes"),
    ("regrid", "b", [[[0, 0, 0], [4, 4]]], "field 'b' must be a list of boxes"),
    ("regrid", "b", [[[0, 0, 0], [4.5, 4, 4]]], "field 'b' must be a list of boxes"),
    ("regrid", "b", [[[4, 0, 0], [0, 4, 4]]], "field 'b' must be a list of boxes"),
    ("solve", "w", "abc", "field 'w' must be a list of finite numbers"),
    ("solve", "w", [1.0, float("nan")], "field 'w' must be a list of finite numbers"),
    ("solve", "q", True, "field 'q' must be an integer"),
    ("global", "s", 1.5, "field 's' must be an integer"),
    ("local", "l", None, "field 'l' must be an integer"),
    ("regrid", "b", [[[], []]], "field 'b' must be a list of boxes"),
    ("regrid", "b", [[[0, 0, 0], [2**63, 4, 4]]], "field 'b' must be a list of boxes"),
]


def _zero_rank(root):
    return [[[], []]] + root[1:], "malformed box [[], []]"


def _bool_corner(root):
    (lo, hi), rest = root[0], root[1:]
    bad = [[lo[0] == 0] + lo[1:], hi]
    return [bad] + rest, f"malformed box {bad!r}"


def _float_corner(root):
    (lo, hi), rest = root[0], root[1:]
    bad = [lo, [float(hi[0])] + hi[1:]]
    return [bad] + rest, f"malformed box {bad!r}"


def _rank_mismatch(root):
    flat = [[lo[:2], hi[:2]] for lo, hi in root]
    return flat, f"trace header field 'root' holds a 2-d box {flat[0]!r} in a 3-d domain"


#: root mutations of the 3-d hotspot trace: ``root -> (root, message)``
ROOT_MUTATIONS = [_zero_rank, _bool_corner, _float_corner, _rank_mismatch]


class TestFieldTypes:
    """Every trace field is type-checked: a mutated value is a
    TraceFormatError naming the record index, op and field, never a bare
    TypeError or a NaN that runs to completion."""

    @staticmethod
    def _mutated(where, key, value):
        trace = _hotspot_trace()
        if where == "header":
            trace.header[key] = value
            return trace, "trace header"
        index, record = next((i, r) for i, r in enumerate(trace.records)
                             if r["op"] == where)
        record[key] = value
        return trace, f"record {index} ({where!r})"

    @pytest.mark.parametrize("where,key,value,message", FIELD_MUTATIONS)
    def test_write_refuses(self, tmp_path, where, key, value, message):
        trace, prefix = self._mutated(where, key, value)
        with pytest.raises(TraceFormatError) as err:
            write_trace(trace, tmp_path / "bad.trace.jsonl.gz")
        assert str(err.value).startswith(prefix)
        assert message in str(err.value)

    @pytest.mark.parametrize("where,key,value,message", FIELD_MUTATIONS)
    def test_read_and_replay_refuse(self, tmp_path, capsys, where, key,
                                    value, message):
        from repro.cli import main

        trace, prefix = self._mutated(where, key, value)
        path = tmp_path / "bad.trace.jsonl.gz"
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for line in [trace.header, *trace.records,
                         {"op": "end", "n": len(trace.records)}]:
                fh.write(json.dumps(line) + "\n")
        with pytest.raises(TraceFormatError, match=message):
            read_trace(path)
        rc = main(["replay", str(path), "--procs", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith("error: ") and prefix in out and message in out

    @pytest.mark.parametrize("mutate", ROOT_MUTATIONS,
                             ids=["zero-rank", "bool-corner", "float-corner",
                                  "rank-mismatch"])
    def test_zero_rank_root_box_is_a_format_error(self, tmp_path, capsys, mutate):
        """A malformed root box (no dimension, a bool or float corner) or
        roots of another rank than the domain: reading the header is a
        TraceFormatError naming the box, not a ValueError from ``Box`` or
        the hierarchy."""
        from repro.cli import main

        trace = _hotspot_trace()
        trace.header["root"], message = mutate(trace.header["root"])
        path = tmp_path / "bad.trace.jsonl.gz"
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for line in [trace.header, *trace.records,
                         {"op": "end", "n": len(trace.records)}]:
                fh.write(json.dumps(line) + "\n")
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            read_trace(path)
        rc = main(["replay", str(path), "--procs", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith("error: ") and message in out


def _decode_root_reference(root, ndim):
    """The former per-box decode of a header's ``root``, then the rank
    rule: the first malformed box raises, then the first box whose rank is
    not the domain's."""
    boxes = [decode_box(b) for b in root]
    for data, box in zip(root, boxes):
        if box.ndim != ndim:
            raise TraceFormatError(
                f"trace header field 'root' holds a {box.ndim}-d box {data!r} "
                f"in a {ndim}-d domain")
    return np.array([[b.lo, b.hi] for b in boxes],
                    dtype=np.int64).reshape(len(boxes), 2, ndim)


#: what ``root_lists`` breaks in one box (``None``: nothing)
_ROOT_FAULTS = [None, None, "rank", "ragged", "hi < lo", "bool", "float",
                "beyond int64", "tuple box", "tuple corner", "corner count"]


@st.composite
def root_lists(draw):
    """A domain rank and a ``root`` list of well-formed boxes of that rank,
    one of them broken by a drawn fault: another rank (1 to 3, or 0),
    ragged corners, ``hi < lo``, a bool or float value, a value beyond
    ``int64``, tuples, or a wrong corner count."""
    ndim = draw(st.integers(1, 3))
    root = []
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(st.lists(st.integers(-4, 4), min_size=ndim, max_size=ndim))
        root.append([lo, [v + draw(st.integers(0, 3)) for v in lo]])
    fault = draw(st.sampled_from(_ROOT_FAULTS))
    if fault is None or not root:
        return ndim, root
    k = draw(st.integers(0, len(root) - 1))
    lo, hi = root[k]
    axis = draw(st.integers(0, ndim - 1))
    if fault == "rank":
        rank = draw(st.integers(0, 3).filter(lambda r: r != ndim))
        lo = (lo * 3)[:rank]
        root[k] = [lo, [v + 1 for v in lo]]
    elif fault == "ragged":
        root[k] = [lo, hi + [0]]
    elif fault == "hi < lo":
        hi[axis] = lo[axis] - 1
    elif fault in ("bool", "float"):
        corner = draw(st.sampled_from([lo, hi]))
        corner[axis] = (draw(st.booleans()) if fault == "bool"
                        else float(corner[axis]))
    elif fault == "beyond int64":
        hi[axis] = 2**63
    elif fault == "tuple box":
        root[k] = (lo, hi)
    elif fault == "tuple corner":
        root[k] = [lo, tuple(hi)]
    else:
        root[k] = [lo, hi, hi][:draw(st.sampled_from([1, 3]))]
    return ndim, root


class TestRootDecode:
    """``decode_root`` accepts and rejects exactly what the per-box decode
    and the rank rule do, with the same message, and yields the same
    corners."""

    @given(case=root_lists())
    @settings(max_examples=400, deadline=None)
    def test_property_matches_the_per_box_decode(self, case):
        ndim, root = case

        def outcome(decode):
            try:
                return decode(root, ndim).tolist()
            except TraceFormatError as err:
                return f"TraceFormatError: {err}"

        assert outcome(decode_root) == outcome(_decode_root_reference)


class TestTraceParams:
    def test_requires_source(self):
        with pytest.raises(ValueError, match="source"):
            TraceParams()

    def test_rejects_bare_synth_prefix(self):
        with pytest.raises(ValueError, match="empty synthetic"):
            TraceParams(source="synth:")

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            TraceParams(source="synth:hotspot", intensity=0.0)

    def test_is_synthetic(self):
        assert TraceParams(source="synth:hotspot").is_synthetic
        assert not TraceParams(source="run.trace.jsonl.gz").is_synthetic


class TestSynthRegistry:
    def test_builtins_registered(self):
        names = available_synth_workloads()
        assert {"hotspot", "bursty", "adversarial"} <= set(names)

    def test_make_unknown_raises(self):
        with pytest.raises(ValueError, match="registered"):
            make_synth_workload("warpdrive")

    def test_parse_synth_source(self):
        assert parse_synth_source("synth:hotspot") == "hotspot"
        assert parse_synth_source("some/file.trace.jsonl.gz") is None
        with pytest.raises(ValueError):
            parse_synth_source("synth:")

    def test_register_custom(self):
        class Blob(SyntheticWorkload):
            name = "test-blob"

            def cluster_boxes(self, coarse_level, time):
                return [self._frac_box([0.2] * 3, [0.6] * 3, coarse_level)]

        register_synth_workload(Blob)
        try:
            assert "test-blob" in available_synth_workloads()
            trace = generate_trace(make_synth_workload("test-blob"),
                                   steps=2, nprocs=2)
            assert trace.app == "synth:test-blob"
            assert trace.nsteps == 2
        finally:
            from repro.traces.synth import _SYNTH

            del _SYNTH["test-blob"]

    def test_register_rejects_default_name(self):
        with pytest.raises(ValueError, match="non-default name"):
            register_synth_workload(SyntheticWorkload)


class TestSynthGenerators:
    @pytest.mark.parametrize("name", ["hotspot", "bursty", "adversarial"])
    def test_deterministic(self, name):
        mk = lambda: make_synth_workload(name, domain_cells=16, max_levels=3,
                                         seed=11)
        assert (generate_trace(mk(), steps=3, nprocs=4)
                == generate_trace(mk(), steps=3, nprocs=4))

    @pytest.mark.parametrize("name", ["hotspot", "bursty", "adversarial"])
    def test_seed_changes_trace(self, name):
        a = generate_trace(make_synth_workload(name, seed=1), steps=3, nprocs=4)
        b = generate_trace(make_synth_workload(name, seed=2), steps=3, nprocs=4)
        if name == "adversarial":  # seed-free by design (worst case is fixed)
            assert a.records == b.records
        else:
            assert a.records != b.records

    def test_generated_trace_round_trips(self, tmp_path):
        trace = generate_trace(MovingHotspot(seed=5), steps=2, nprocs=4)
        path = tmp_path / "synth.trace.jsonl.gz"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_header_marks_synthetic(self):
        trace = generate_trace(MovingHotspot(), steps=2, nprocs=2)
        assert trace.app == "synth:hotspot"
        assert trace.scheme == "synth"
        assert trace.header["config"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingHotspot(domain_cells=2)
        with pytest.raises(ValueError):
            MovingHotspot(intensity=0)
        with pytest.raises(ValueError):
            generate_trace(MovingHotspot(), steps=0, nprocs=2)

    def test_disjoint_boxes(self):
        from repro.amr.box import Box

        a = Box((0, 0, 0), (4, 4, 4))
        b = Box((2, 2, 2), (6, 6, 6))
        out = disjoint_boxes([a, b])
        assert sum(x.ncells for x in out) == a.ncells + b.ncells - 2**3
        for i, x in enumerate(out):
            for y in out[i + 1:]:
                assert not x.intersects(y)


class TestRecordRun:
    def test_recording_does_not_perturb_the_run(self):
        from repro.harness.experiment import run_experiment
        from repro.harness.persist import run_result_to_dict

        base = run_experiment(SMALL, "distributed")
        result, _ = record_run(SMALL, "distributed")
        assert run_result_to_dict(result) == run_result_to_dict(base)

    def test_rejects_replay_config(self):
        cfg = replace(SMALL, trace=TraceParams(source="synth:hotspot"))
        with pytest.raises(ValueError, match="record a replayed run"):
            record_run(cfg, "distributed")

    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.trace.jsonl.gz"
        _, trace = record_run(SMALL, "parallel", out=out)
        assert out.is_file()
        assert read_trace(out) == trace

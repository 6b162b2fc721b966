"""Raw complex-field snapshot format: roundtrip and corruption handling."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rotor_gpe import (
    SIDECAR_KEYS,
    Field,
    GridSpec,
    PhysicsParams,
    SnapshotFormatError,
    read_snapshot,
    vortex_state,
    write_snapshot,
)
from rotor_gpe.cli import EXIT_IO, entrypoint

GRID = GridSpec(16, 5.0)
PARAMS = PhysicsParams(omega=1.0, beta=0.5)


def write_one(tmp_path, t=0.25):
    field = vortex_state(GRID, PARAMS, +1)
    stem = tmp_path / "snap"
    bin_path, json_path = write_snapshot(stem, field, t, PARAMS)
    return field, stem, bin_path, json_path


def test_roundtrip_is_exact(tmp_path):
    field, stem, bin_path, json_path = write_one(tmp_path)
    assert bin_path.suffix == ".bin"
    assert json_path.suffix == ".json"
    back, meta = read_snapshot(stem)
    assert back.grid == GRID
    assert np.array_equal(back.data, field.data)
    assert meta["n"] == 16
    assert meta["extent"] == 5.0
    assert meta["t"] == 0.25
    assert meta["omega"] == 1.0
    assert meta["beta"] == 0.5
    assert meta["layout"] == "z-fastest"
    assert meta["dtype"] == "c128"


def test_bin_layout_is_little_endian_interleaved_z_fastest(tmp_path):
    field, _, bin_path, _ = write_one(tmp_path)
    raw = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
    assert raw.size == 2 * GRID.n**3
    # Interleaved (re, im) pairs in C order (z fastest).
    flat = field.data.reshape(-1)
    assert raw[0] == flat[0].real
    assert raw[1] == flat[0].imag
    assert raw[2] == flat[1].real  # next z point
    assert flat[1] == field.data[0, 0, 1]


def test_read_accepts_stem_or_either_path(tmp_path):
    field, stem, bin_path, json_path = write_one(tmp_path)
    for target in (stem, bin_path, json_path, str(stem)):
        back, _ = read_snapshot(target)
        assert np.array_equal(back.data, field.data)


def test_missing_files_raise(tmp_path):
    with pytest.raises(SnapshotFormatError):
        read_snapshot(tmp_path / "nothing")
    _, stem, bin_path, _ = write_one(tmp_path)
    bin_path.unlink()
    with pytest.raises(SnapshotFormatError):
        read_snapshot(stem)


def test_truncated_payload_raises(tmp_path):
    _, stem, bin_path, _ = write_one(tmp_path)
    data = bin_path.read_bytes()
    bin_path.write_bytes(data[:-16])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(stem)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda meta: meta.pop("omega"),
        lambda meta: meta.update(layout="x-fastest"),
        lambda meta: meta.update(dtype="f64"),
        lambda meta: meta.update(n=0),
        lambda meta: meta.update(extent=-1.0),
        lambda meta: meta.update(n=24),  # byte count no longer matches
    ],
)
def test_tampered_sidecar_raises(tmp_path, mutate):
    _, stem, _, json_path = write_one(tmp_path)
    meta = json.loads(json_path.read_text())
    mutate(meta)
    json_path.write_text(json.dumps(meta))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(stem)


@pytest.mark.parametrize("sidecar", [5, None, list(SIDECAR_KEYS)])
def test_a_sidecar_that_is_not_an_object_raises(tmp_path, sidecar):
    _, stem, _, json_path = write_one(tmp_path)
    json_path.write_text(json.dumps(sidecar))
    with pytest.raises(SnapshotFormatError, match="expected a JSON object"):
        read_snapshot(stem)


def test_corrupt_json_raises(tmp_path):
    _, stem, _, json_path = write_one(tmp_path)
    for content in [b"{not json", b'{"n": \xff}', b'{"n": ' + b"1" * 5000 + b"}"]:
        json_path.write_bytes(content)  # past int()'s 4300-digit limit in the last
        with pytest.raises(SnapshotFormatError, match="is not valid JSON"):
            read_snapshot(stem)


def test_a_failed_rewrite_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    import rotor_gpe.snapshots as snapshots

    field, stem, bin_path, json_path = write_one(tmp_path)
    before = bin_path.read_bytes(), json_path.read_bytes()

    def write_half_then_fail(fh, data):
        fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(snapshots, "_write_all", write_half_then_fail)
    with pytest.raises(OSError):
        write_snapshot(stem, vortex_state(GRID, PARAMS, -1), 0.5, PARAMS)
    assert (bin_path.read_bytes(), json_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.bin", "snap.json"]
    back, _ = read_snapshot(stem)
    assert np.array_equal(back.data, field.data)


def test_a_snapshot_is_written_from_the_field_buffer_without_a_copy(tmp_path):
    grid = GridSpec(32, 6.0)
    field = vortex_state(grid, PARAMS, +1)
    write_snapshot(tmp_path / "warm", field, 0.0, PARAMS)
    tracemalloc.start()
    try:
        bin_path, _ = write_snapshot(tmp_path / "snap", field, 0.0, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * field.data.nbytes  # measured 0.016; a tobytes() copy is 1.01
    assert bin_path.read_bytes() == field.data.astype("<c16").tobytes()


def test_a_snapshot_is_read_into_one_field(tmp_path):
    # One read into the field's own array, checked once by Field:
    # measured 1.00 field at n = 48 (2.13 with a bytes object copied into
    # the array and a finiteness scan of its own).
    grid = GridSpec(48, 8.0)
    field = vortex_state(grid, PARAMS, +1)
    stem = tmp_path / "snap"
    write_snapshot(stem, field, 0.0, PARAMS)
    read_snapshot(stem)
    tracemalloc.start()
    try:
        back, _ = read_snapshot(stem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * field.data.nbytes
    assert np.array_equal(back.data, field.data)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
finite = st.floats(allow_nan=False, allow_infinity=False)


def run_from(directory, stem, capsys):
    """``run`` of a config that starts from the snapshot ``stem``; its exit code."""
    config = directory / "config.json"
    config.write_text(json.dumps({
        "grid": {"n": GRID.n, "extent": GRID.extent},
        "physics": {"omega": PARAMS.omega, "beta": PARAMS.beta},
        "initial": {"type": "file", "params": {"path": str(stem)}},
        "evolve": {"t_end": 0.01},
        "output": {"dir": str(directory / "out")},
    }))
    code = entrypoint(["run", str(config)])
    assert capsys.readouterr().err.startswith("I/O error: ")
    assert not (directory / "out").exists()
    return code


@PROPERTY
@given(
    n=st.integers(2, 8).map(lambda k: 2 * k),
    extent=st.floats(1e-3, 1e3),
    t=finite,
    omega=st.floats(1.0, 1e6),
    beta=st.floats(0.0, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_written_snapshot_reads_back_byte_for_byte(tmp_path, n, extent, t, omega, beta, seed):
    grid, params = GridSpec(n, extent), PhysicsParams(omega=omega, beta=beta)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2,) + grid.shape) * 10.0 ** rng.integers(-300, 300)
    field = Field(grid, values[0] + 1j * values[1])
    stem = tmp_path / f"snap-{seed}"
    bin_path, json_path = write_snapshot(stem, field, t, params)
    back, meta = read_snapshot(stem)
    assert back.grid == grid
    assert back.data.tobytes() == field.data.tobytes() == bin_path.read_bytes()
    assert (meta["n"], meta["extent"], meta["t"], meta["omega"], meta["beta"]) == (
        n, extent, t, omega, beta,
    )
    sidecar = json_path.read_bytes()
    write_snapshot(stem, back, meta["t"], params)  # and the re-write is the same bytes
    assert json_path.read_bytes() == sidecar


@PROPERTY
@given(keep=st.integers(0, 16 * GRID.n**3 - 1))
def test_a_truncated_payload_raises_and_a_run_from_it_exits_io(tmp_path, capsys, keep):
    _, stem, bin_path, _ = write_one(tmp_path)
    bin_path.write_bytes(bin_path.read_bytes()[:keep])
    with pytest.raises(SnapshotFormatError, match=f"holds {keep} bytes"):
        read_snapshot(stem)
    assert run_from(tmp_path, stem, capsys) == EXIT_IO


def _parses(raw: bytes) -> bool:
    try:
        json.loads(raw.decode("utf-8"))
    except ValueError:
        return False
    return True


json_values = st.recursive(
    st.none() | st.booleans() | finite | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _sidecar_with(key, value) -> bytes:
    """The sidecar of :func:`write_one` with ``key`` set to ``value``, as JSON bytes."""
    meta = {
        "n": GRID.n, "extent": GRID.extent, "t": 0.25, "omega": PARAMS.omega,
        "beta": PARAMS.beta, "layout": "z-fastest", "dtype": "c128", key: value,
    }
    return json.dumps(meta).encode("utf-8")


@PROPERTY
@given(
    sidecar=st.binary(max_size=64).filter(lambda raw: not _parses(raw))
    | json_values.filter(lambda v: not isinstance(v, dict)).map(
        lambda v: json.dumps(v).encode("utf-8")
    )
    | st.tuples(
        st.sampled_from(("extent", "t", "omega", "beta")),
        json_values.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float))),
    ).map(lambda pair: _sidecar_with(*pair))
)
@example(sidecar=_sidecar_with("extent", True))
@example(sidecar=_sidecar_with("extent", "1.0"))
@example(sidecar=_sidecar_with("t", "zero"))
@example(sidecar=_sidecar_with("t", True))
@example(sidecar=_sidecar_with("t", None))
@example(sidecar=_sidecar_with("omega", "1.0"))  # once a config error on the physics check
@example(sidecar=_sidecar_with("beta", float("nan")))
@example(sidecar=_sidecar_with("omega", float("inf")))
@example(sidecar=_sidecar_with("t", 10**400))  # an integer past the float range
@example(sidecar=_sidecar_with("extent", 10**400))  # once an uncaught OverflowError
def test_a_garbled_sidecar_raises_and_a_run_from_it_exits_io(tmp_path, capsys, sidecar):
    _, stem, _, json_path = write_one(tmp_path)
    json_path.write_bytes(sidecar)
    with pytest.raises(
        SnapshotFormatError,
        match="is not valid JSON|expected a JSON object|is not a finite number",
    ):
        read_snapshot(stem)
    assert run_from(tmp_path, stem, capsys) == EXIT_IO

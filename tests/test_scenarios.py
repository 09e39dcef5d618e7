"""Input tests: written tables read back equal, profile generators reject bad arguments by name."""

import re

import numpy as np
import pytest

from droopsched.network import Branch, NetworkDataError, NetworkModel
from droopsched.scenarios import (
    clear_sky_availability,
    daily_load_shape,
    load_der_units,
    load_network,
    random_radial_feeder,
    six_bus_feeder,
    six_bus_pv_units,
    square_wave_frequency,
)


# "utf-8-sig" writes the byte-order mark that a spreadsheet's "CSV UTF-8"
# export starts with; both readers took it for part of the header's first field
ENCODINGS = pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"], ids=["plain", "byte-order-mark"])


@ENCODINGS
def test_bundled_feeder_round_trips_through_its_table(tmp_path, encoding):
    model = six_bus_feeder()
    path = tmp_path / "net.csv"
    rows = "".join(f"{b.frm},{b.to},{b.r!r},{b.x!r}\n" for b in model.branches)
    path.write_text(f"from,to,r_pu,x_pu\n# the bundled 6-bus feeder, Zürich-Süd\n\n{rows}", encoding=encoding)
    assert load_network(path) == model


@ENCODINGS
def test_bundled_pv_units_round_trip_through_their_table(tmp_path, encoding):
    units = six_bus_pv_units()
    path = tmp_path / "ders.csv"
    rows = "".join(f"{u.node},{u.cap.kind},{u.cap.s_max!r},{u.tau_p!r},{u.tau_q!r},{u.cap.pf_min!r}\n" for u in units)
    path.write_text(f"node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n{rows}", encoding=encoding)
    assert load_der_units(path) == units


@ENCODINGS
@pytest.mark.parametrize(
    "load, header, n_fields, error",
    [(load_network, "from,to,r_pu,x_pu", 4, NetworkDataError), (load_der_units, "node,kind,...", 6, ValueError)],
    ids=["network", "der-units"],
)
def test_bad_tables_are_refused_by_file_line_whatever_the_encoding(tmp_path, encoding, load, header, n_fields, error):
    # the mark is dropped before the header is read: a headerless file names
    # the header, and a short row is line 2 of the file, as without a mark
    path = tmp_path / "table.csv"
    path.write_text("1,2,3\n", encoding=encoding)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing '{re.escape(header)}' header$"):
        load(path)
    path.write_text(f"{header.split(',')[0]},x\n1,2,3\n", encoding=encoding)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected {n_fields} fields, got 3$"):
        load(path)
    # a line in cp1252, a spreadsheet's plain "CSV" export on Windows, is
    # refused by its line as the reader's own error, not a bare UnicodeDecodeError
    head = f"{header.split(',')[0]},x\n".encode(encoding)
    for lineno, table in ((2, head + "# Zürich feeder\n".encode("cp1252")), (1, "Zürich\n".encode("cp1252"))):
        path.write_bytes(table)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: 'utf-8' codec can't decode byte 0xfc") as info:
            load(path)
        assert type(info.value) is error


@pytest.mark.parametrize("seed", [0, 5, 61, 5000])
@pytest.mark.parametrize("n_bus", [1, 7, 500])
def test_random_feeder_is_the_scalar_draw_loop(n_bus, seed):
    # the generator's one two-value draw per bus yields the floats of two
    # scalar draws, in stream order, and leaves the stream where they do
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(1, n_bus + 1):
        parent = int(rng.integers(0, j))
        rows.append(Branch(parent, j, float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.005, 0.05))))
    drawn = np.random.default_rng(seed)
    model = random_radial_feeder(n_bus, drawn)
    assert model.branches == NetworkModel(rows).branches
    assert all(type(b.r) is float and type(b.x) is float for b in model.branches)
    assert drawn.bit_generator.state == rng.bit_generator.state


GENERATORS = {
    "clear_sky": (clear_sky_availability, dict(duration_s=10.0, peak=1.0, t_mid=5.0, half_width=4.0)),
    "load_shape": (daily_load_shape, dict(duration_s=10.0, base=1.0, swing=0.3, period_s=20.0)),
    "square_wave": (square_wave_frequency, dict(duration_s=10.0, amplitude=0.001, half_period_s=4.0, omega_star=1.0)),
}


def bad_arguments():
    for key, (_, kwargs) in GENERATORS.items():
        for name in kwargs:
            positive = name in ("half_width", "period_s", "half_period_s")
            for bad in (np.nan, np.inf, -np.inf):
                message = "finite and >= 0" if name == "duration_s" else "finite and positive" if positive else "finite"
                yield pytest.param(key, name, bad, f"{name} must be {message}", id=f"{key}-{name}={bad}")
        yield pytest.param(key, "duration_s", -1.0, "duration_s must be finite and >= 0", id=f"{key}-duration_s=-1")
    for key, name in (("clear_sky", "half_width"), ("load_shape", "period_s"), ("square_wave", "half_period_s")):
        for bad in (0.0, -3.0):
            yield pytest.param(key, name, bad, f"{name} must be finite and positive", id=f"{key}-{name}={bad}")


@pytest.mark.parametrize("key, name, bad, message", bad_arguments())
def test_rejects_bad_argument_by_name(key, name, bad, message):
    generator, kwargs = GENERATORS[key]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generator(**{**kwargs, name: bad})


@pytest.mark.parametrize("key", GENERATORS)
def test_valid_arguments_give_one_finite_sample_per_second(key):
    generator, kwargs = GENERATORS[key]
    for duration in (0.0, 10.0):
        out = generator(**{**kwargs, "duration_s": duration})
        assert out.shape == (int(duration) + 1,) and np.isfinite(out).all()

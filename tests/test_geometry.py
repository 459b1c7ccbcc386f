"""Lane representation, anchor layout, resampling, and the anchor decode
(run by training.predict_frames)."""

from __future__ import annotations

import numpy as np
import pytest

from lane3d.geometry import Lane3D, LaneStack, build_default_anchors, on_grid
from lane3d.synth import SceneConfig
from lane3d.training import predict_frames


def test_lane_validation():
    with pytest.raises(ValueError):
        Lane3D(stations=[0, 1], x=[0], z=[0, 0], visibility=[1, 1], category=0)
    with pytest.raises(ValueError):
        Lane3D(stations=[1, 0], x=[0, 0], z=[0, 0], visibility=[1, 1], category=0)
    with pytest.raises(ValueError):
        Lane3D(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[1, 2], category=0)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("fields, message", [
    (dict(stations=[0, 1], x=[0], z=[0, 0], visibility=[1, 1]), "share one length"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[1]), "share one length"),
    (dict(stations=[0, 1, 1], x=[0] * 3, z=[0] * 3, visibility=[1] * 3), "strictly increasing"),
    (dict(stations=[0, 2, 1], x=[0] * 3, z=[0] * 3, visibility=[1] * 3), "strictly increasing"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[1, 1.5]), r"lie in \[0, 1\]"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[-0.1, 1]), r"lie in \[0, 1\]"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[np.nan, 0.5]), r"lie in \[0, 1\]"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, 0], visibility=[1, -np.nan]), r"lie in \[0, 1\]"),
    (dict(stations=[0, 1], x=[np.nan, 0], z=[0, 0], visibility=[1, 1]), "x must be finite"),
    (dict(stations=[0, 1], x=[0, -np.inf], z=[0, 0], visibility=[1, 1]), "x must be finite"),
    (dict(stations=[0, 1], x=[0, 0], z=[0, np.inf], visibility=[1, 1]), "z must be finite"),
    (dict(stations=[0, 1], x=[0, 0], z=[np.nan, 0], visibility=[1, 1]), "z must be finite"),
    (dict(stations=[], x=[], z=[], visibility=[]), "stations must hold at least one"),
    (dict(stations=[[0, 1], [2, 3]], x=[0, 0], z=[0, 0], visibility=[1, 1]),
     r"stations must be one-dimensional, not of shape \(2, 2\)"),
    (dict(stations=[0, np.inf], x=[0, 0], z=[0, 0], visibility=[1, 1]), "stations must be finite"),
    (dict(stations=[-np.inf, 0], x=[0, 0], z=[0, 0], visibility=[1, 1]), "stations must be finite"),
    (dict(stations=[np.nan], x=[0], z=[0], visibility=[1]), "stations must be finite"),
])
def test_lane_rejections_keep_their_messages(fields, message, as_array):
    # float64 arrays skip the conversion, so both input forms run each check
    if as_array:
        fields = {name: np.array(values, dtype=np.float64) for name, values in fields.items()}
    with pytest.raises(ValueError, match=f"^Lane3D: .*{message}"):
        Lane3D(category=1, **fields)


def test_lane_rejects_the_non_finite_lane_from_dict_rejects():
    fields = dict(stations=[0.0, 1.0], x=[np.nan, 0.0], z=[0.0, np.inf], visibility=[np.nan, 0.5])
    with pytest.raises(ValueError, match="^Lane3D: x must be finite"):
        Lane3D(category=1, **fields)
    with pytest.raises(ValueError, match="^lane: x: non-finite values"):
        Lane3D.from_dict({"category": 1, **fields})


def test_lane_keeps_float64_arrays_and_converts_the_rest():
    stations = np.array([1.0, 2.0])
    lane = Lane3D(stations=stations, x=np.array([0, 1]), z=[0.0, 0.0],
                  visibility=np.array([1.0, 0.0], dtype=np.float32), category=1)
    assert lane.stations is stations
    assert all(getattr(lane, name).dtype == np.float64
               for name in ("stations", "x", "z", "visibility"))


def test_lane_roundtrip_dict():
    lane = Lane3D(stations=[3.0, 5.0], x=[1.0, 2.0], z=[0.1, 0.2],
                  visibility=[1.0, 0.0], category=2)
    again = Lane3D.from_dict(lane.to_dict())
    assert np.array_equal(again.stations, lane.stations)
    assert np.array_equal(again.x, lane.x)
    assert np.array_equal(again.z, lane.z)
    assert np.array_equal(again.visibility, lane.visibility)
    assert again.category == 2


def _stack_fields(**changes):
    """A valid two-lane, three-station stack's fields, with ``changes`` in place."""
    fields = dict(stations=np.array([1.0, 2.0, 4.0]), x=np.zeros((2, 3)), z=np.zeros((2, 3)),
                  visibility=np.full((2, 3), 0.5), category=np.array([1, 2]))
    return {**fields, **changes}


def _edited(name, index, value):
    """``name`` of the valid stack with one entry set to ``value``."""
    array = _stack_fields()[name].copy()
    array[index] = value
    return {name: array}


@pytest.mark.parametrize("changes, message", [
    (_edited("x", (1, 2), np.nan), "x must be finite"),
    (_edited("x", (0, 0), -np.inf), "x must be finite"),
    (_edited("z", (1, 0), np.inf), "z must be finite"),
    (_edited("z", (0, 1), np.nan), "z must be finite"),
    (_edited("visibility", (0, 2), 1.5), r"visibility must lie in \[0, 1\]"),
    (_edited("visibility", (1, 1), -0.1), r"visibility must lie in \[0, 1\]"),
    (_edited("visibility", (1, 0), np.nan), r"visibility must lie in \[0, 1\]"),
    (_edited("visibility", (0, 0), -np.nan), r"visibility must lie in \[0, 1\]"),
    (_edited("stations", 2, 2.0), "stations must be strictly increasing"),
    (dict(stations=np.array([1.0, 2.0])), r"x has shape \(2, 3\), not \(2, 2\)"),
    (dict(stations=np.arange(4.0)), r"x has shape \(2, 3\), not \(2, 4\)"),
    (dict(z=np.zeros((2, 4))), r"z has shape \(2, 4\), not \(2, 3\)"),
    (dict(visibility=np.ones(3)), r"visibility has shape \(3,\), not \(2, 3\)"),
    (dict(category=np.array([1, 2, 3])), r"x has shape \(2, 3\), not \(3, 3\)"),
    (dict(category=np.array([[1, 2]])), r"x has shape \(2, 3\), not \(1, 2, 3\)"),
    (dict(stations=np.zeros(0), x=np.zeros((2, 0)), z=np.zeros((2, 0)),
          visibility=np.zeros((2, 0))), "stations must hold at least one"),
    (dict(stations=np.array([[1.0, 2.0, 4.0]])),
     r"stations must be one-dimensional, not of shape \(1, 3\)"),
    (_edited("stations", 2, np.inf), "stations must be finite"),
])
def test_lane_stack_rejects_what_a_lane_rejects(changes, message):
    with pytest.raises(ValueError, match=f"^LaneStack: .*{message}"):
        LaneStack(**_stack_fields(**changes))


def test_lane_stack_rows_are_its_lanes():
    fields = _stack_fields(**_edited("x", (1, 2), 3.5))
    stack = LaneStack(**fields)
    assert len(stack) == 2
    for a, lane in enumerate(stack):
        assert isinstance(lane, Lane3D) and type(lane.category) is int
        assert lane.category == fields["category"][a]
        for name in ("x", "z", "visibility"):
            assert getattr(lane, name).tobytes() == fields[name][a].tobytes()
        assert lane.stations is fields["stations"]
    empty = LaneStack(**_stack_fields(**{name: fields[name][:0]
                                         for name in ("x", "z", "visibility", "category")}))
    assert len(empty) == 0 and list(empty) == []


def test_three_anchor_layout():
    anchors = build_default_anchors(3, (-1.0, 1.0), stations=[5.0, 10.0])
    assert anchors.base_x.shape == (3, 2)
    assert np.array_equal(anchors.base_x[:, 0], [-1.0, 0.0, 1.0])
    assert np.array_equal(anchors.base_x[:, 1], [-1.0, 0.0, 1.0])


def test_single_anchor_is_centered():
    anchors = build_default_anchors(1, (-1.0, 1.0), stations=[5.0])
    assert np.array_equal(anchors.base_x, [[0.0]])
    anchors = build_default_anchors(1, (2.0, 6.0), stations=[5.0])
    assert np.array_equal(anchors.base_x, [[4.0]])


def test_default_layout_spacing():
    anchors = SceneConfig().anchors()
    assert anchors.num_anchors == 40
    assert anchors.num_stations == 20
    assert np.isclose(anchors.stations[0], 3.0) and np.isclose(anchors.stations[-1], 103.0)
    spacing = np.diff(anchors.base_x[:, 0])
    assert np.allclose(spacing, 20.0 / 39.0, atol=1e-12)
    assert np.isclose(spacing[0], 0.5128, atol=5e-5)


def test_invalid_layouts_rejected():
    with pytest.raises(ValueError):
        build_default_anchors(0, (-1.0, 1.0), [5.0])
    with pytest.raises(ValueError):
        build_default_anchors(3, (1.0, -1.0), [5.0])
    with pytest.raises(ValueError):
        build_default_anchors(3, (-1.0, 1.0), stations=[5.0, 5.0])
    for stations in ([5.0, np.inf], [np.inf, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="stations must be finite"):
            build_default_anchors(3, (-1.0, 1.0), stations)
    for span in ((1.0, 1.0), (-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="lateral span must be finite and increasing"):
            build_default_anchors(3, span, [5.0])


def test_on_grid_is_isclose_at_every_station():
    grid = np.array([-40.0, -1e-9, 0.0, 3.0, 1e3])
    tol = 1e-8 + 1e-5 * np.abs(grid)
    rows = [grid, grid + tol, grid - tol, np.nextafter(grid + tol, np.inf),
            np.nextafter(grid - tol, -np.inf), -grid, grid + 1.0]
    rows += [np.where(np.arange(5) == k, row, grid) for row in rows[1:] for k in range(5)]
    rng = np.random.default_rng(0)
    rows += list(grid + tol * rng.uniform(-2.0, 2.0, (200, 5)))
    rows = np.array(rows)
    expected = np.isclose(rows, grid).all(axis=1)
    assert 0 < expected.sum() < len(rows)
    assert np.array_equal(on_grid(rows, grid), expected)
    assert [bool(on_grid(row, grid)) for row in rows] == [np.allclose(row, grid) for row in rows]


def _decode(hand_set_model, span, stations, dx, dz, vis_logits, class_logits):
    """Lanes training.predict_frames decodes from the given raw head outputs."""
    scene_config, params, scene = hand_set_model(
        stations, span, dx, dz, vis_logits, class_logits
    )
    return predict_frames(params, scene, scene_config, use_lstm_fusion=False)[-1]


def _one_foreground(num_anchors, k, row):
    """(K, n) rows: ``row`` at anchor k, zeros elsewhere."""
    out = np.zeros((num_anchors, len(row)))
    out[k] = row
    return out


def test_zero_offset_decode_is_anchor_geometry(hand_set_model):
    zeros = np.zeros((3, 2))
    lanes = _decode(hand_set_model, (-1.0, 1.0), [5.0, 10.0],
                    zeros, zeros, zeros, np.tile([0.0, 1.0], (3, 1)))
    assert len(lanes) == 3
    lane = lanes[2]
    assert np.array_equal(lane.x, [1.0, 1.0])
    assert np.array_equal(lane.z, [0.0, 0.0])
    assert np.array_equal(lane.visibility, [0.5, 0.5])  # sigmoid(0)
    assert lane.category == 1


def test_additive_decode(hand_set_model):
    cls = np.tile([1.0, 0.0], (3, 1))  # background but anchor 2
    cls[2] = [0.0, 3.0]
    (lane,) = _decode(hand_set_model, (-1.0, 1.0), [5.0, 10.0],
                      _one_foreground(3, 2, [0.5, 0.5]), _one_foreground(3, 2, [0.1, 0.2]),
                      _one_foreground(3, 2, [10.0, -10.0]), cls)
    assert np.allclose(lane.x, [1.5, 1.5])
    assert np.allclose(lane.z, [0.1, 0.2])
    assert lane.visibility[0] > 0.99 and lane.visibility[1] < 0.01
    assert lane.category == 1
    assert np.array_equal(lane.visible_mask(), [True, False])


def test_decode_drops_background_and_invisible_anchors(hand_set_model):
    # anchor 0 is background, anchor 1 sees no station, anchor 2 is a lane
    vis = np.array([[5.0, 5.0], [-1.0, -1.0], [5.0, -1.0]])
    cls = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    zeros = np.zeros((3, 2))
    lanes = _decode(hand_set_model, (-1.0, 1.0), [5.0, 10.0], zeros, zeros, vis, cls)
    assert [lane.x[0] for lane in lanes] == [1.0]


def test_decode_affine_in_offsets(hand_set_model):
    rng = np.random.default_rng(3)
    stations, span = [5.0, 10.0, 15.0], (-2.0, 2.0)
    cls = np.tile([1.0, 0.0], (4, 1))  # background but anchor 1
    cls[1] = [0.0, 1.0]
    zeros = np.zeros((4, 3))
    for _ in range(10):
        o1 = rng.normal(size=3)
        o2 = rng.normal(size=3)
        z = _one_foreground(4, 1, rng.normal(size=3))
        (a,) = _decode(hand_set_model, span, stations,
                       _one_foreground(4, 1, o1 + o2), z, zeros, cls)
        (b,) = _decode(hand_set_model, span, stations,
                       _one_foreground(4, 1, o1), z, zeros, cls)
        assert np.allclose(a.x, b.x + o2, atol=1e-12)


def test_decode_encode_roundtrip(hand_set_model):
    # the regression targets scene_loss encodes (x - anchor base, z)
    # decode back to the lane
    stations, span = [3.0, 8.0, 13.0], (-3.0, 3.0)
    anchors = build_default_anchors(5, span, stations=stations)
    rng = np.random.default_rng(11)
    lanes = [
        Lane3D(stations=anchors.stations, x=rng.normal(size=3),
               z=rng.normal(size=3), visibility=[1.0, 1.0, 1.0], category=1)
        for _ in range(5)
    ]
    dx = np.stack([lane.x - anchors.base_x[k] for k, lane in enumerate(lanes)])
    dz = np.stack([lane.z for lane in lanes])
    back = _decode(hand_set_model, span, stations, dx, dz,
                   np.full((5, 3), 50.0), np.tile([0.0, 5.0], (5, 1)))
    assert len(back) == 5
    for lane, decoded in zip(lanes, back):
        # a + (x - a) can be one ulp off x in floats; z is decoded as is
        assert np.allclose(decoded.x, lane.x, rtol=0.0, atol=1e-12)
        assert np.array_equal(decoded.z, lane.z)

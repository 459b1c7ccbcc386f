"""Fuzzed variants of valid files through every file reader.

Each variant is a valid file truncated, with bytes overwritten, or with
one field of its JSON document (a lane, a checkpoint manifest, a scene's
``scene.json``) replaced or deleted.  A reader must either load it or
raise a ValueError whose message names the file; a ``scene.json`` that
loads holds only JSON numbers in its ego motion.  JSON inputs are UTF-8
whatever the locale.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lane3d.cli import FEATURES_NAME, SCENE_NAME, read_scene_dir, write_scene_dir
from lane3d.config import RunConfiguration, load_run_configuration, save_run_configuration
from lane3d.geometry import read_lane_file, write_lane_file
from lane3d.synth import SceneConfig, generate_scene
from lane3d.training import TrainConfig, init_parameters, load_checkpoint, save_checkpoint

SCENE = SceneConfig(num_lanes_range=(1, 2), stations=tuple(np.linspace(3.0, 63.0, 6)),
                    num_anchors=8, channels=24, num_frames=2, noise_sigma=0.05)
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

DELETE = object()
# what a permissive float parser takes for a number: booleans and numeric strings
NEAR_NUMBERS = st.booleans() | st.floats().map(str) | st.sampled_from(["1e3", " 2 "])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
            | st.sampled_from([10**400, -10**400]))  # beyond the float64 range
JSON_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
# shapes past numpy's limits: empty but huge, or of rank above 64
SHAPES = st.lists(st.sampled_from([0, 1, 2, 2**62, 2**70]), max_size=70)


def _overwrite(raw, edits):
    data = bytearray(raw)
    for position, byte in edits:
        data[position % len(data)] = byte
    return bytes(data)


def _damaged(raw):
    """``raw`` truncated, or with one to four bytes overwritten."""
    return (st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
            | st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                       min_size=1, max_size=4).map(lambda edits: _overwrite(raw, edits)))


def _edit(document, path, value):
    """``document`` as JSON bytes with the entry at ``path`` set to
    ``value``, or deleted for DELETE."""
    doc = json.loads(json.dumps(document))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return json.dumps(doc).encode()


def _edited(document, paths, values=JSON_VALUES):
    """``document`` with the entry at one of ``paths`` replaced or deleted."""
    return st.builds(lambda path, value: _edit(document, path, value),
                     st.sampled_from(paths), st.just(DELETE) | values)


def _loads_or_names(read, path):
    """What ``read`` loads from ``path``, or None once its ValueError names the path."""
    try:
        return read(path)
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Bytes of a valid lane file, checkpoint and scene directory."""
    root = tmp_path_factory.mktemp("valid")
    scene = generate_scene(3, SCENE)
    write_lane_file(root / "lanes.json", scene.frames[-1].lanes, "hash")
    save_checkpoint(root / "model.ckpt", init_parameters(SCENE, TrainConfig(seed=0)), 2, "hash")
    write_scene_dir(root / "scene", scene, "hash")
    save_run_configuration(root / "config.json", RunConfiguration())
    return {
        "lanes": (root / "lanes.json").read_bytes(),
        "checkpoint": (root / "model.ckpt").read_bytes(),
        "config": (root / "config.json").read_bytes(),
        "scene": {p.name: p.read_bytes() for p in (root / "scene").iterdir()},
    }


def _lane_variants(raw):
    document = json.loads(raw)
    paths = [("lanes",)] + [("lanes", i) for i in range(len(document["lanes"]))] + [
        ("lanes", i, field) for i in range(len(document["lanes"]))
        for field in ("stations", "x", "z", "visibility", "category")]
    return _damaged(raw) | _edited(document, paths)


def _checkpoint_variants(raw):
    line, body = raw.split(b"\n", 1)
    header = json.loads(line)
    n = len(header["manifest"])
    paths = [("manifest",)] + [("manifest", i) for i in range(n)] + [
        ("manifest", i, j) for i in range(n) for j in (0, 1)]
    edited = _edited(header, paths, JSON_VALUES | SHAPES).map(lambda head: head + b"\n" + body)
    return _damaged(raw) | edited


@FUZZ
@given(data=st.data())
def test_lane_file_reader_loads_or_names_the_file(valid, tmp_path, data):
    path = tmp_path / "lanes.json"
    path.write_bytes(data.draw(_lane_variants(valid["lanes"])))
    _loads_or_names(read_lane_file, path)


@FUZZ
@given(data=st.data())
def test_checkpoint_reader_loads_or_names_the_file(valid, tmp_path, data):
    path = tmp_path / "model.ckpt"
    path.write_bytes(data.draw(_checkpoint_variants(valid["checkpoint"])))
    _loads_or_names(load_checkpoint, path)


def _npy_with_shape(raw, shape):
    """A features file whose header claims ``shape`` over the same body."""
    body = np.load(io.BytesIO(raw), allow_pickle=False).tobytes()
    out = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": tuple(shape)}
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue() + body


@FUZZ
@given(data=st.data())
def test_scene_dir_reader_loads_or_names_the_directory(valid, tmp_path, data):
    files = valid["scene"]
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    raw = files[name]
    variants = _damaged(raw)
    if name == SCENE_NAME:
        doc = json.loads(raw)
        variants |= (_edited(doc, [("ego_motion",), ("ego_motion", 0), ("seed",)])
                     | _edited(doc, [("ego_motion", 0, 0), ("ego_motion", 1, 1)], NEAR_NUMBERS))
    elif name == FEATURES_NAME:
        variants |= st.lists(st.integers(-2, 2**45), max_size=4).map(
            lambda shape: _npy_with_shape(raw, shape))
    else:
        variants = variants | _lane_variants(raw) | st.just(None)  # None: the file is missing
    scene_dir = _scene_dir(tmp_path / "scene", files, name, data.draw(variants, label="variant"))
    if _loads_or_names(read_scene_dir, scene_dir) is not None:
        ego_motion = json.loads((scene_dir / SCENE_NAME).read_bytes())["ego_motion"]
        assert all(type(v) in (int, float) for row in ego_motion for v in row), ego_motion


def _scene_dir(path, files, name, variant):
    """A scene directory of ``files`` with file ``name`` holding ``variant``
    (missing for None)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    for other, content in files.items():
        if other != name or variant is not None:
            (path / other).write_bytes(variant if other == name else content)
    return path


READERS = {"lanes": read_lane_file, "checkpoint": load_checkpoint,
           "config": load_run_configuration}


@pytest.mark.parametrize("reader", [*READERS, "scene"])
def test_the_valid_files_load(valid, tmp_path, reader):
    if reader == "scene":
        path = _scene_dir(tmp_path / "scene", valid["scene"], None, None)
        assert read_scene_dir(path).num_frames == SCENE.num_frames
    else:
        path = tmp_path / reader
        path.write_bytes(valid[reader])
        assert READERS[reader](path)


HUGE_INT = b"1" * 5000  # past the interpreter's digit limit for int()


def _with_header(checkpoint, path, value):
    head, body = checkpoint.split(b"\n", 1)
    return _edit(json.loads(head), path, value) + b"\n" + body


# damage that once escaped a reader: (reader, scene file, damage)
ESCAPES = {
    "lane-int-over-digit-limit":
        ("lanes", None, lambda raw: raw.replace(b"[3.0,", b"[" + HUGE_INT + b",", 1)),
    "lane-int-beyond-float":
        ("lanes", None, lambda raw: _edit(json.loads(raw), ("lanes", 0, "x", 0), 10**400)),
    "header-int-over-digit-limit":
        ("checkpoint", None, lambda raw: raw.replace(b'"epoch": 2', b'"epoch": ' + HUGE_INT, 1)),
    "empty-shape-past-int64":
        ("checkpoint", None, lambda raw: _with_header(raw, ("manifest", 0, 1), [0, 2**70])),
    "empty-shape-past-memory":
        ("checkpoint", None, lambda raw: _with_header(raw, ("manifest", 0, 1), [0, 2**62, 2**62])),
    "rank-70-shape":
        ("checkpoint", None, lambda raw: _with_header(raw, ("manifest", 0, 1), [1] * 70)),
    "features-cut-header":  # reaches numpy's header tokenizer
        ("scene", FEATURES_NAME, lambda raw: _overwrite(raw, [(8, 1)])),
    "features-impossible-shape":  # reaches numpy's allocator
        ("scene", FEATURES_NAME, lambda raw: _npy_with_shape(raw, (2**44,))),
    "ego-motion-beyond-float":
        ("scene", SCENE_NAME, lambda raw: _edit(json.loads(raw), ("ego_motion", 0, 0), 10**400)),
    "config-int-over-digit-limit":
        ("config", None, lambda raw: raw.replace(b'"epochs": 60', b'"epochs": ' + HUGE_INT, 1)),
}


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_damage_that_once_escaped_is_rejected_by_name(valid, tmp_path, case):
    reader, name, damage = ESCAPES[case]
    if reader == "scene":
        files = valid["scene"]
        path = _scene_dir(tmp_path / "scene", files, name, damage(files[name]))
        read = read_scene_dir
    else:
        path = tmp_path / reader
        path.write_bytes(damage(valid[reader]))
        read = READERS[reader]
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read(path)


def test_json_inputs_are_utf8_in_any_locale(valid, tmp_path):
    # a fresh process in the C locale with Python's UTF-8 mode and locale
    # coercion off: its locale encoding is ASCII
    config, latin1 = tmp_path / "config.json", tmp_path / "latin1.json"
    for path, suffix in ((config, "\u00e9".encode("utf-8")), (latin1, b"\xe9")):
        path.write_bytes(valid["config"].replace(b'"runs"', b'"runs-' + suffix + b'"', 1))
    scene = _scene_dir(tmp_path / "scene", valid["scene"], None, None)
    doc = {**json.loads((scene / SCENE_NAME).read_bytes()), "config_hash": "h\u00e9"}
    (scene / SCENE_NAME).write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code = (
        "import locale, sys\n"
        "from lane3d.cli import read_scene_dir\n"
        "from lane3d.config import load_run_configuration\n"
        "assert 'utf' not in locale.getpreferredencoding(False).lower()\n"
        "config, latin1, scene = sys.argv[1:]\n"
        "assert load_run_configuration(config).output_dir == 'runs-\\u00e9'\n"
        "assert read_scene_dir(scene).num_frames == 2\n"
        "try:\n"
        "    load_run_configuration(latin1)\n"
        "except ValueError as exc:\n"
        "    assert str(exc).startswith(f'configuration file {latin1}: invalid JSON'), exc\n"
        "else:\n"
        "    raise AssertionError('a Latin-1 byte loaded')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(config), str(latin1), str(scene)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

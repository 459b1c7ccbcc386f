"""Shared fixtures."""

import numpy as np
import pytest

from lane3d.synth import FrameRecord, SceneConfig, SceneSequence
from lane3d.training import TrainConfig, init_parameters


def _hand_set_model(stations, lateral_span, dx, dz, vis_logits, class_logits, lanes=()):
    """(scene_config, params, scene): one frame whose raw head outputs for
    anchor k are row k of ``dx``, ``dz``, ``vis_logits`` (each (K, S)) and
    ``class_logits`` (K, num_classes), for the unfused model.

    Frame features are one-hot per anchor and the hidden layer is the
    identity, so anchor k reads column k of each head weight exactly.
    """
    dx, dz, vis_logits, class_logits = (
        np.asarray(a, dtype=np.float64) for a in (dx, dz, vis_logits, class_logits)
    )
    k, s = dx.shape
    num_classes = class_logits.shape[1]
    channels = max(k, 3 * s + num_classes)
    scene_config = SceneConfig(
        num_anchors=k, channels=channels, num_classes=num_classes,
        lateral_span=tuple(lateral_span), stations=tuple(stations),
    )
    params = init_parameters(scene_config, TrainConfig())
    params["head.hidden_w"] = np.eye(channels)
    heads = {
        "offset_w": np.concatenate([dx.T, dz.T]),
        "vis_w": vis_logits.T,
        "cls_w": class_logits.T,
    }
    for name, weights in heads.items():
        padded = np.zeros_like(params[f"head.{name}"])
        padded[:, :k] = weights
        params[f"head.{name}"] = padded
    for name in ("hidden_b", "offset_b", "vis_b", "cls_b"):
        params[f"head.{name}"] = np.zeros_like(params[f"head.{name}"])
    frame = FrameRecord(lanes=tuple(lanes), features=np.eye(k, channels))
    scene = SceneSequence(frames=(frame,), ego_motion=np.zeros((1, 2)), seed=0)
    return scene_config, params, scene


@pytest.fixture
def hand_set_model():
    return _hand_set_model

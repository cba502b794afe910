"""From-scratch recurrent cells, fusion models, training, and checkpoints."""

from .checkpoint import load_checkpoint, predict, save_checkpoint
from .model import (
    backward_arrays,
    build_model,
    forward_arrays,
    rng_streams,
    samples_to_arrays,
)
from .training import forward_split, steps_per_epoch, train

"""UV-grid Gaussian avatars: differentiable rendering, multi-view fitting,
diffusion on UV tensors, and UV-space editing, with bit-exact file formats."""

from .core import (Camera, RenderConfig, UVAvatar, init_from_anchors,
                   rotation_matrix)
from .diffusion import (DiffusionSchedule, UVTensor, cosine_schedule,
                        denoiser_loss, denormalize_avatar, inpaint_sample,
                        normalize_avatar, q_sample, reverse_sample)
from .edit import UVMask, apply_expression_offset, interpolate, region_transfer
from .errors import (CheckFailureError, FormatError, GuvError,
                     InvalidArgumentError, NumericFailureError,
                     UnsupportedVersionError)
from .fit import FitConfig, FitResult, PosedView, fit_scene
from .io_cli import (generate_toy_dataset, load_avatar, load_cameras,
                     load_dataset, main, save_avatar, save_cameras)
from .render import RenderMLP, RenderOutput, march_ray, psnr, render_image

__version__ = "0.1.0"

__all__ = [
    "Camera", "RenderConfig", "UVAvatar", "init_from_anchors",
    "rotation_matrix",
    "DiffusionSchedule", "UVTensor", "cosine_schedule", "denoiser_loss",
    "denormalize_avatar", "inpaint_sample", "normalize_avatar", "q_sample",
    "reverse_sample",
    "UVMask", "apply_expression_offset", "interpolate", "region_transfer",
    "CheckFailureError", "FormatError", "GuvError", "InvalidArgumentError",
    "NumericFailureError", "UnsupportedVersionError",
    "FitConfig", "FitResult", "PosedView", "fit_scene",
    "generate_toy_dataset", "load_avatar", "load_cameras", "load_dataset",
    "main", "save_avatar", "save_cameras",
    "RenderMLP", "RenderOutput", "march_ray", "psnr", "render_image",
    "__version__",
]

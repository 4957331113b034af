"""opkern: kernels from feature maps, frame-based reconstruction from
functional samples, and regularized learning from operator-valued data."""

__version__ = "0.1.0"

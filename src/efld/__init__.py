"""Training, int8 quantization, cost analysis, and export toolkit for a
lightweight multi-format facial landmark detector."""

__version__ = "0.1.0"
# Here, not in efld.container and efld.model, so that the CLI parser reads
# them without loading numpy.
CONTAINER_VERSION = 1
VARIANTS = ("default", "conv-backbone", "pfld-head")

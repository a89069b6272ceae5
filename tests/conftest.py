import pytest

from koafusion import models
from koafusion.models import ArchSpec


@pytest.fixture
def tiny_spec(monkeypatch):
    """``make(kind, protocols=(), clinical_dim=0, **fields)`` -> a tiny ``ArchSpec``.

    For the test's duration the model size constants shrink to a two-stage
    (2, 3)-channel CNN, a 5-wide head and an 8-row positional table, and each
    spec gets a width-8, one-layer, two-head transformer unless ``fields`` says
    otherwise.  Build every model from such a spec inside the test, after the
    fixture has run: the sizes are read when a model is built and run.
    """
    monkeypatch.setattr(models, "ENCODER_CHANNELS", (2, 3))
    monkeypatch.setattr(models, "HEAD_HIDDEN", 5)
    monkeypatch.setattr(models, "MAX_SLICES", 8)

    def make(kind, protocols=(), clinical_dim=0, **fields):
        return ArchSpec(kind=kind, mri_protocols=tuple(protocols), clinical_dim=clinical_dim,
                        **{"descriptor_dim": 8, "trf_layers": 1, "trf_heads": 2, **fields})

    return make

"""Compiled inference plans: pipeline + model lowered for serving.

A :class:`CompiledPlan` is the array-only form of a fitted installation:
the preprocessing pipeline folded into one
:class:`~repro.compile.transform.FusedTransform` pass and the model
lowered to a flat evaluator (packed trees / affine).  It is lowered
once per serving predictor, when the predictor is built
(``TrainedBundle.predictor(compiled=True)``), and the runtime
:class:`~repro.core.predictor.ThreadPredictor` evaluates through it
instead of walking Python stage and tree objects.  Plans are never
stored: lowering is pure array packing, and it costs less than
unpickling and checksumming a stored copy would.

Plans are **partial by design**: whichever of the two halves cannot be
lowered (an exotic pipeline stage, a kNN model) stays ``None`` and the
predictor falls back to the corresponding object for just that half.
Everything that *is* lowered is bitwise identical to the object path, so
swapping a plan in or out can never change a thread choice.

The plan holds only numpy arrays and scalars — no references to the
pipeline or model objects.
"""

from __future__ import annotations

from repro.compile.lower import lower_model
from repro.compile.transform import lower_pipeline


class CompiledPlan:
    """The lowered halves of a fitted (pipeline, model) pair.

    Attributes
    ----------
    transform:
        A :class:`FusedTransform`, or ``None``.  ``None`` means "apply
        no fused transform": either the bundle has no pipeline
        (``transform_fallback`` False — features pass straight through,
        like the object path) or the pipeline could not be folded
        (``transform_fallback`` True — callers must run the object
        pipeline).
    model:
        A lowered evaluator, or ``None`` (use the object model).
    """

    __slots__ = ("transform", "transform_fallback", "model")

    def __init__(self, transform, transform_fallback: bool, model):
        self.transform = transform
        self.transform_fallback = bool(transform_fallback)
        self.model = model

    @property
    def fully_lowered(self) -> bool:
        return not self.transform_fallback and self.model is not None

    def describe(self) -> dict:
        """JSON-able summary of what was lowered (kinds and array sizes)."""
        info = {
            "fully_lowered": self.fully_lowered,
            "pipeline": ("fused" if self.transform is not None
                         else "object-fallback" if self.transform_fallback
                         else "identity"),
            "model": (self.model.kind if self.model is not None
                      else "object-fallback"),
        }
        if self.transform is not None:
            info["transform"] = self.transform.describe()
        if self.model is not None:
            info["model_arrays"] = self.model.describe()
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompiledPlan(pipeline={self.describe()['pipeline']}, "
                f"model={self.describe()['model']})")


def compile_plan(pipeline, model) -> CompiledPlan:
    """Lower a fitted pipeline + model pair into a :class:`CompiledPlan`.

    Never raises on unlowerable pieces — they become object-path
    fallbacks recorded on the plan.
    """
    if pipeline is None:
        transform, transform_fallback = None, False
    else:
        transform = lower_pipeline(pipeline)
        transform_fallback = transform is None
    return CompiledPlan(transform=transform,
                        transform_fallback=transform_fallback,
                        model=lower_model(model))

"""The kernel namespace over :mod:`coxsub._kernels`.

The package calls the facet pass, the submask fill and the popcounts only
through ``active``, so a profiler can wrap them by replacing its attributes.
The facet pass ``_kernels.subword_facets`` keeps the name ``reduced_subword_masks``,
which ``bench/tracer.py`` (``KERNELS``) and the ``kernels.subword.*`` metrics read.
"""

from types import SimpleNamespace

from . import _kernels

active = SimpleNamespace(reduced_subword_masks=_kernels.subword_facets,
                         fill_submasks=_kernels.fill_submasks,
                         popcounts=_kernels.popcounts)


def backend_name() -> str:
    return "python"

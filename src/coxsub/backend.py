"""The kernel namespace over :mod:`coxsub._kernels`.

A word built on its own gets its facet pass through ``active``, so a
profiler can wrap it by replacing the attribute; the forward pass,
and a braid move's whole cut (``move_cut``, ``cut_facets``), bypass it.
The submask fill and ``popcounts``, which no package code calls, stay for
``bench/tracer.py`` (``KERNELS``).
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

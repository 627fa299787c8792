"""numpy, imported when a module first uses it.

The exact layer (closed forms, sequence tables, the truncated solve) needs
no numpy, and importing numpy takes longer than `validate quick` itself.  A
module that uses numpy binds `np = DeferredNumpy(globals())`: the first
attribute read imports numpy and rebinds that module's `np` to it, so every
later use is a plain global lookup.
"""


class DeferredNumpy:
    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)

"""The request ledger: one recorder of every device request a test makes.

``with Ledger(dev) as led:`` wraps the device instance's ``read``,
``read_view``, ``read_silent``, ``write`` and ``clwb`` — the typed
helpers, ``zero_range`` and ``persist`` call those, so each request is
seen once — and appends one :class:`Request` per call to
``led.requests``.  A guard asks a query (:meth:`Ledger.select`, or a
slice of ``led.requests`` around one step) instead of wrapping the
device itself.  docs/TESTING.md (*Request ledger*) defines the fields;
``tests/core/test_ledger_guard.py`` keeps this the only recorder.
"""

import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import repro.pm
from repro.failure import image
from repro.nova import PAGE_SIZE
from repro.pm.device import CACHELINE

#: The device methods the ledger wraps, and the charged reads among them.
KINDS = ("read", "read_view", "read_silent", "write", "clwb")
READS = ("read", "read_view")

_SKIP = (os.path.dirname(repro.pm.__file__) + os.sep, __file__)


@dataclass(slots=True)
class Request:
    kind: str
    addr: int
    n: int
    charge: int             # the request's clock.charged_fs delta
    caller: str             # first frame outside repro/pm and the ledger
    nt: bool = False        # a write's flags
    persist: bool = False
    region: Optional[str] = None    # filled by Ledger.region

    @property
    def end(self) -> int:
        return self.addr + self.n


def method_name(code, f_locals) -> str:
    """``code``'s qualified name where ``co_qualname`` (Python 3.11) is
    missing: the class on its ``self``'s or ``cls``'s MRO that defines
    it, else its bare name."""
    owner = f_locals.get("self", f_locals.get("cls"))
    for klass in (owner if isinstance(owner, type) else type(owner)).__mro__:
        fn = vars(klass).get(code.co_name)
        if getattr(getattr(fn, "__func__", fn), "__code__", None) is code:
            return f"{klass.__qualname__}.{code.co_name}"
    return code.co_name


def _caller() -> str:
    frame = sys._getframe(2)
    while frame.f_code.co_filename.startswith(_SKIP):
        frame = frame.f_back
    return (getattr(frame.f_code, "co_qualname", None)
            or method_name(frame.f_code, frame.f_locals))


class Ledger:
    """Records every request ``dev`` serves inside the ``with`` block."""

    def __init__(self, dev):
        self.dev = dev
        self.requests: list[Request] = []
        self._decoded: tuple[int, list] = (-1, [])

    def __enter__(self) -> "Ledger":
        dev, log = self.dev, self.requests.append
        self._real = {kind: getattr(dev, kind) for kind in KINDS}
        self._shadowed = {kind: vars(dev).get(kind) for kind in KINDS}

        def recorder(kind, real):
            def request(addr, arg=CACHELINE, nt=False, persist=False):
                before = dev.clock.charged_fs
                if kind == "write":
                    out, n = real(addr, arg, nt, persist), len(arg)
                else:
                    out, n = real(addr, arg), arg
                log(Request(kind, addr, n, dev.clock.charged_fs - before,
                            _caller(), nt, persist))
                return out
            return request

        for kind, real in self._real.items():
            setattr(dev, kind, recorder(kind, real))
        return self

    def __exit__(self, *exc) -> None:
        for kind, shadowed in self._shadowed.items():   # an outer ledger's
            if shadowed is None:
                delattr(self.dev, kind)
            else:
                setattr(self.dev, kind, shadowed)

    def select(self, *kinds: str, within: Optional[tuple[int, int]] = None,
               caller: Optional[str] = None) -> list[Request]:
        """The requests of ``kinds`` (any kind if none is named) that
        overlap the byte range ``within`` and were made by ``caller``, in
        the order they were made."""
        lo, hi = within or (0, self.dev.size)
        return [r for r in self.requests
                if (not kinds or r.kind in kinds) and r.addr < hi
                and r.end > lo and caller in (None, r.caller)]

    def region(self, req: Request) -> str:
        """``req.region``: its first page's name in the image as it stands
        now (``image.decode``, through the unwrapped ``read_silent``: no
        charge, no record), if it has none yet."""
        if req.region is None:
            count, pages = self._decoded
            if count != len(self.requests):
                raw = SimpleNamespace(read_silent=self._real["read_silent"],
                                      size=self.dev.size)
                self._decoded = len(self.requests), image.decode(raw).pages
                pages = self._decoded[1]
            req.region = pages[req.addr // PAGE_SIZE]
        return req.region

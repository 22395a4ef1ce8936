"""Span tracing from outside the program.

`Tracer.install` replaces public functions of antiprelie's layers with
wrappers that record a span per call: name, start, end and the parent
span.  A function imported by name into several modules is replaced in
every module that holds it, so calls through `antiprelie.cli` and
through `antiprelie.cocycles` are both seen.  `multiply` is only
counted, because a round calls it up to ~190,000 times.  Spans stay in memory
and are written out when the run ends.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" patches a method.
SPANS = (
    ("antiprelie.cli", "emit", "cli.emit"),
    ("antiprelie.catalog", "instantiate", "catalog.instantiate"),
    ("antiprelie.catalog", "_verify_A_families",
     "catalog.verify.A-families"),
    ("antiprelie.catalog", "_verify_CA_families",
     "catalog.verify.CA-families"),
    ("antiprelie.catalog", "_verify_automorphisms",
     "catalog.verify.automorphisms"),
    ("antiprelie.catalog", "_verify_cocycles", "catalog.verify.cocycles"),
    ("antiprelie.catalog", "_verify_transformations",
     "catalog.verify.transformations"),
    ("antiprelie.catalog", "_verify_internal_isos",
     "catalog.verify.internal-isos"),
    ("antiprelie.cocycles", "brute_force_Z2", "cocycles.brute_force_Z2"),
    ("antiprelie.cocycles", "_quadratic_coefficients",
     "cocycles.residual_tables"),
    ("antiprelie.cocycles", "_scan_chunk", "cocycles.scan"),
    ("antiprelie.cocycles", "instantiate_family_gf",
     "cocycles.instantiate_family_gf"),
    ("antiprelie.cocycles", "verify_family_membership",
     "cocycles.verify_family_membership"),
    ("antiprelie.cocycles", "transform_deformation",
     "cocycles.transform_deformation"),
    ("antiprelie.cocycles", "linear_space", "cocycles.linear_space"),
    ("antiprelie.algebra", "check_identity", "algebra.check_identity"),
    ("antiprelie.algebra", "check_compatible_pair",
     "algebra.check_compatible_pair"),
    ("antiprelie.algebra", "load_algebra_file", "algebra.load_algebra_file"),
    ("antiprelie.algebra", "commutator_pair", "algebra.commutator_pair"),
    ("antiprelie.operators", "check_anti_o", "operators.check_anti_o"),
    ("antiprelie.operators", "check_strong", "operators.check_strong"),
    ("antiprelie.operators", "induce_on_domain", "operators.induce_on_domain"),
    ("antiprelie.operators", "induce_from_invertible",
     "operators.induce_from_invertible"),
    ("antiprelie.linalg", "Matrix.det", "linalg.det"),
    ("antiprelie.linalg", "Matrix.rref", "linalg.rref"),
    ("antiprelie.forms", "construct_from_vectors",
     "forms.construct_from_vectors"),
    ("antiprelie.forms", "invariant_form_space", "forms.invariant_form_space"),
    ("antiprelie.forms", "induce_from_cocycle", "forms.induce_from_cocycle"),
    ("antiprelie.forms", "check_comm_2cocycle", "forms.check_comm_2cocycle"),
    ("antiprelie.representations", "left_multiplication_pair",
     "representations.left_multiplication_pair"),
    ("antiprelie.representations", "dual_pair", "representations.dual_pair"),
    ("antiprelie.representations", "semidirect_product",
     "representations.semidirect_product"),
)

COUNTED = (("antiprelie.algebra", "multiply", "algebra.multiply_calls"),)


def _rebind(module_name, attr, make):
    """Replace module.attr (or Class.method) and every alias of it in the
    loaded antiprelie modules; returns the undo list."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, make(orig))
        return [(cls, meth, orig)]
    orig = getattr(module, attr)
    new = make(orig)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "antiprelie"
                               or name.startswith("antiprelie.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                undo.append((mod, key, orig))
    return undo


class Tracer:
    """Spans and counts at layer boundaries of one process."""

    def __init__(self):
        self.spans = []            # (id, parent, job, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.results = Counter()   # (name, passed) for CheckReport results
        self.candidates = 0        # tables examined by the Z2 scan
        self.solutions = 0
        self.members = 0
        self.job = 0
        self._stack = []           # [span id, child seconds]
        self._undo = []

    def wrap(self, fn, name):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                tracer.spans[sid] = (sid, parent, tracer.job, name, t0, t1)
            tracer.observe(name, args, out, top=len(stack) == 1)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def observe(self, name, args, out, top):
        """Counts taken where the work happens.  Verdicts are counted only
        for calls made by a job itself (`top`), not for the checks that
        other layer functions make internally."""
        passed = getattr(out, "passed", None)
        if top and isinstance(passed, bool):
            self.results[(name, passed)] += 1
        if name == "cocycles.brute_force_Z2":
            A = args[0]
            self.candidates += A.field.p ** (A.dim ** 3)
            self.solutions += len(out)
        elif name == "cocycles.instantiate_family_gf":
            self.members += len(out)

    def root(self, name, fn, *args):
        """Run one job under a root span."""
        return self.wrap(fn, name)(*args)

    def install(self):
        for module, attr, name in SPANS:
            self._undo += _rebind(module, attr, lambda f, n=name:
                                  self.wrap(f, n))
        for module, attr, name in COUNTED:
            self._undo += _rebind(module, attr, lambda f, n=name:
                                  self.count(f, n))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

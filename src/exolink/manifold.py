"""Symbolic records of closed oriented smooth 4-manifolds.

A record tracks exactly the data the surgery calculus transforms: a finite
presentation of the fundamental group, the Euler characteristic, the
intersection Gram matrix over a labeled basis of H_2, an optional
Seiberg-Witten element of the group ring Z[H_2], and the marked
submanifolds (tori, loops, sphere-link components) that later operations
cut along.  The relative factor sw * (t^-[T] - t^[T]) of a marked torus T
is derived from sw on demand (`ManifoldRecord.rel_factor`), never stored.

Records are immutable; every constructor seeds a replayable provenance
trace and every surgery appends one step, so any record can be rebuilt
from its trace and compared field for field.

The closed-manifold bookkeeping identity chi = 2 - 2*b1 + b2 (Poincare
duality with b3 = b1, b0 = b4 = 1) is enforced at construction time, which
is what catches most bookkeeping mistakes in the surgery rules.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

# The interpreter's own sha256: importing hashlib would load OpenSSL, which
# costs every command about 4 MB of resident memory and 3 ms of start-up.
try:
    from _sha256 import sha256  # CPython 3.11 and older
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and newer
    except ImportError:
        from hashlib import sha256

from .groupring import GroupRingElement, from_text as ring_from_text, to_text as ring_to_text
from .grouppres import (
    GroupPresentation,
    pi1_Ng,
    pi1_product_surface,
    pi1_Z,
    pi1_Z2,
    tietze_simplify,
    trivial_presentation,
    word_to_text,
)
from .lattice import (
    IntSymMatrix,
    admissible_check,
    direct_sum,
    hyperbolic_pair,
    invariants,
)

FORMAT_SPEC = "exolink/manifold-spec/v1"
FORMAT_RECORD = "exolink/manifold-record/v1"

MARK_KINDS = ("torus", "loop", "sphere_link_component")


def unit_vector(n: int, i: int) -> tuple[int, ...]:
    if not 0 <= i < n:
        raise ValueError(f"basis index {i} out of range for rank {n}")
    return tuple(1 if j == i else 0 for j in range(n))


def u_factor(nvars: int, torus_class: tuple[int, ...]) -> GroupRingElement:
    """The unit-difference factor t^-[T] - t^[T] for a square-zero torus.

    This is the factor the torus contributes to relative Seiberg-Witten
    data under the gluing rule; it vanishes identically for a
    nullhomologous class, which is why that case is refused.
    """
    if len(torus_class) != nvars:
        raise ValueError("torus class length does not match the basis rank")
    if not any(torus_class):
        raise ValueError("torus class is nullhomologous; no relative factor")
    neg = tuple(-c for c in torus_class)
    return GroupRingElement.from_terms(nvars, {neg: 1, tuple(torus_class): -1})


@dataclass(frozen=True)
class MarkedSubmanifold:
    """A tracked torus, loop, or sphere-link component inside a record.

    ``homology_class`` is a coordinate vector in the record's H_2 basis
    (None for loops and for nullhomologous spheres).  ``pi1_words`` are
    texts in the ambient fundamental-group generators: two words spanning a
    torus, one free-homotopy word for a loop, none for spheres.  ``framing``
    is an opaque tag; equal tags mean equal framings, nothing more.
    ``complement`` optionally carries a presentation of the fundamental
    group of the complement of a torus together with its meridian word, for
    gluings where that model is known exactly.
    """

    kind: str
    label: str
    homology_class: tuple[int, ...] | None
    pi1_words: tuple[str, ...] = ()
    framing: str = "product"
    flags: frozenset[str] = frozenset()
    complement: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in MARK_KINDS:
            raise ValueError(f"unknown mark kind {self.kind!r}")
        if self.kind == "loop" and len(self.pi1_words) != 1:
            raise ValueError(f"loop mark {self.label!r} needs exactly one word")
        if self.kind == "torus" and len(self.pi1_words) not in (0, 2):
            raise ValueError(
                f"torus mark {self.label!r} needs zero or two spanning words"
            )
        if self.kind == "sphere_link_component":
            if self.pi1_words:
                raise ValueError(f"sphere mark {self.label!r} carries no words")
            if "trivial_normal_bundle" not in self.flags:
                raise ValueError(
                    f"sphere mark {self.label!r} must carry trivial_normal_bundle"
                )
        if self.kind == "loop" and self.homology_class is not None:
            raise ValueError(f"loop mark {self.label!r} carries no homology class")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "class": None if self.homology_class is None else list(self.homology_class),
            "pi1_words": list(self.pi1_words),
            "framing": self.framing,
            "flags": sorted(self.flags),
            "complement": None if self.complement is None else list(self.complement),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedSubmanifold":
        label = _typed(data, "label", str)  # first: a mark that is no object fails here
        complement = data.get("complement")
        shape = None if complement is None else (type(complement), *map(type, complement))
        if shape not in (None, (list, str, str)):
            raise ValueError(f"mark complement must be [presentation, meridian]: {complement!r}")
        return cls(
            kind=_typed(data, "kind", str),
            label=label,
            homology_class=None if data.get("class") is None else _typed_items(data, "class", int),
            pi1_words=_typed_items(data, "pi1_words", str, ()),
            framing=_typed(data, "framing", str, "product"),
            flags=frozenset(_typed_items(data, "flags", str, ())),
            complement=None if complement is None else (complement[0], complement[1]),
        )


@dataclass(frozen=True)
class ManifoldRecord:
    """A closed oriented smooth 4-manifold as tracked invariants plus marks."""

    name: str
    pi1: GroupPresentation
    euler: int
    form: IntSymMatrix
    basis: tuple[str, ...]
    sw: GroupRingElement | None
    sw_reason: str
    marks: tuple[MarkedSubmanifold, ...]
    rel_tori: frozenset[str] = frozenset()  # tori with a relative factor
    flags: frozenset[str] = frozenset()
    trace: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        b2 = self.form.n
        if len(self.basis) != b2:
            raise ValueError("basis labels do not match the form rank")
        if len(set(self.basis)) != b2:
            raise ValueError("basis labels must be distinct")
        b1 = self.b1
        if self.euler != 2 - 2 * b1 + b2:
            raise ValueError(
                f"{self.name}: chi = {self.euler} but 2 - 2*b1 + b2 = "
                f"{2 - 2 * b1 + b2} (b1 = {b1}, b2 = {b2})"
            )
        if self.sw is None:
            if not self.sw_reason:
                raise ValueError("untracked sw needs a reason")
        elif self.sw.nvars != b2:
            raise ValueError("sw exponent vectors must match the H_2 basis rank")
        labels = [m.label for m in self.marks]
        if len(set(labels)) != len(labels):
            raise ValueError("mark labels must be distinct")
        by_label = {m.label: m for m in self.marks}
        for mark in self.marks:
            if mark.homology_class is not None and len(mark.homology_class) != b2:
                raise ValueError(
                    f"mark {mark.label!r} class length does not match basis"
                )
            if (
                mark.kind == "torus"
                and "self_intersection_zero" in mark.flags
                and mark.homology_class is not None
                and self.form.pair(mark.homology_class, mark.homology_class) != 0
            ):
                raise ValueError(
                    f"torus mark {mark.label!r} flagged square-zero but Q(c,c) != 0"
                )
            for text in mark.pi1_words:
                self.pi1.word(text)
        if self.rel_tori and self.sw is None:
            raise ValueError("relative factors need a tracked sw")
        for label in self.rel_tori:
            mark = by_label.get(label)
            if mark is None or mark.kind != "torus" or not any(mark.homology_class or ()):
                raise ValueError(
                    f"relative factor {label!r} is not a marked torus with a nonzero class"
                )

    @property
    def b1(self) -> int:
        return self.pi1.abelianization()[0]

    @property
    def b2(self) -> int:
        return self.form.n

    @property
    def signature(self) -> int:
        return invariants(self.form).signature

    @property
    def parity(self) -> str:
        return "even" if self.form.is_even() else "odd"

    def mark(self, label: str) -> MarkedSubmanifold:
        for m in self.marks:
            if m.label == label:
                return m
        raise ValueError(f"no mark labeled {label!r} in {self.name}")

    def rel_factor(self, label: str) -> GroupRingElement:
        """The relative Seiberg-Witten factor of torus ``label``: sw * (t^-[T] - t^[T])."""
        if label not in self.rel_tori:
            raise KeyError(f"no relative factor for {label!r} in {self.name}")
        return self.sw * u_factor(self.b2, self.mark(label).homology_class)


def invariant_tuple(record: ManifoldRecord) -> dict:
    """The comparison tuple used for homeomorphism-type style agreement."""
    free, torsion = record.pi1.abelianization()
    return {
        "euler": record.euler,
        "b1": record.b1,
        "b2": record.b2,
        "signature": record.signature,
        "parity": record.parity,
        "pi1_free_rank": free,
        "pi1_torsion": list(torsion),
    }


def simplifies_trivial(p: GroupPresentation) -> bool:
    simplified, _ = tietze_simplify(p)
    return not simplified.generators and not simplified.relators


# -- serialization ---------------------------------------------------------------


def canonical_json(obj, indent: int | None = 2) -> str:
    """Deterministic rendering used for report files and stdout.

    Indented by default; report files pass ``indent=None`` for the
    `compact_json` rendering.
    """
    if indent is None:
        return compact_json(obj)
    return json.dumps(obj, sort_keys=True, indent=indent, separators=(",", ": "))


def compact_json(obj) -> str:
    """Deterministic compact rendering: report files and object keys.

    Without ``indent`` ``json`` uses its C encoder.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def same_json(a, b) -> bool:
    """Whether ``canonical_json(a) == canonical_json(b)``, without rendering it.

    The compact rendering differs from the canonical one only in whitespace
    outside strings, so the two have the same equality.
    """
    return compact_json(a) == compact_json(b)


def record_to_json(record: ManifoldRecord) -> dict:
    return {
        "format": FORMAT_RECORD,
        "name": record.name,
        "euler": record.euler,
        "pi1": record.pi1.to_text(),
        "basis": list(record.basis),
        "gram": [list(row) for row in record.form.rows],
        "sw": None if record.sw is None else ring_to_text(record.sw),
        "sw_reason": record.sw_reason,
        "rel_tori": sorted(record.rel_tori),
        "marks": [m.to_json() for m in record.marks],
        "flags": sorted(record.flags),
        "trace": [dict(step) for step in record.trace],
    }


def record_from_json(data: dict) -> ManifoldRecord:
    """The record of a `record_to_json` document.  One written before report v3
    stores ``rel_sw`` texts in place of ``rel_tori``: ValueError if one of
    them is not the relative factor derived from sw."""
    if data.get("format") != FORMAT_RECORD:
        raise ValueError(f"not a {FORMAT_RECORD} document")
    basis = tuple(data["basis"])
    b2 = len(basis)
    sw = None if data["sw"] is None else ring_from_text(data["sw"], b2)
    rel_sw = data.get("rel_sw")
    record = ManifoldRecord(
        name=data["name"],
        pi1=GroupPresentation.parse(data["pi1"]),
        euler=data["euler"],
        form=IntSymMatrix.from_rows(data["gram"]),
        basis=basis,
        sw=sw,
        sw_reason=data["sw_reason"],
        marks=tuple(MarkedSubmanifold.from_json(m) for m in data["marks"]),
        rel_tori=frozenset(_typed_items(data, "rel_tori", str) if rel_sw is None else rel_sw),
        flags=frozenset(data.get("flags", ())),
        trace=tuple(data.get("trace", ())),
    )
    for label, text in (rel_sw or {}).items():
        if ring_from_text(text, b2) != record.rel_factor(label):
            raise ValueError(f"relative factor for {label!r} disagrees with sw")
    return record


# -- content-addressed object table ----------------------------------------------


class ObjectMismatch(ValueError):
    """An object of a table whose content does not hash to its key."""


def object_key(text: str) -> str:
    """The key of a value in an object table: the sha256 of its compact rendering."""
    return sha256(text.encode()).hexdigest()


def _map_step(step, trace, spec) -> dict:
    """A copy of ``step``, its ``other_trace`` mapped by ``trace`` and a base
    step's ``spec`` by ``spec``: the step fields an `ObjectStore` keys."""
    if not isinstance(step, dict):
        raise ValueError("a trace step is not an object")
    step = dict(step)
    if "other_trace" in step:
        step["other_trace"] = trace(step["other_trace"])
    args = step.get("args")
    if step.get("op") == "base" and isinstance(args, dict) and "spec" in args:
        step["args"] = {**args, "spec": spec(args["spec"])}
    return step


class ObjectStore:
    """A content-addressed table of JSON values: the storage of v2 and v3 reports.

    Each value is stored once, under the `object_key` of its `compact_json`
    rendering, as git stores its objects.  The object form of a record is
    its `record_to_json` body with two changes: the Gram matrix is sparse,
    ``{"n": N, "entries": [[i, j, x], ...]}`` for i <= j and x != 0, and
    the trace is the key of a trace object ``{"parent": key | null,
    "steps": [...]}``.  ``parent`` is the longest trace stored before that
    is a proper prefix, so ``Zstar[k]`` points to ``Z[k]``, which points to
    ``M``.  Inside a step each nested ``other_trace`` and the base step's
    ``spec`` are keys too.

    Values are stored as fresh copies, so the table shares no mutable value
    with the records written or between two objects.  Each object is checked
    against its key the first time it is read, unless this store wrote it.
    What is read back shares values with the table, and expanded traces
    share their steps: copy a value before editing it in place.
    """

    def __init__(self, objects: dict | None = None):
        self.objects = {} if objects is None else objects
        self._traces: dict[tuple[str, ...], str] = {}  # stored steps -> trace key
        self._steps: dict[int, tuple[dict, dict, str]] = {}  # id -> step, stored, text
        self._checked: set[str] = set()  # keys whose objects hash to them
        self._expanded: dict[str, list] = {}  # trace key -> its expanded steps

    def put(self, value, owned: bool = False) -> str:
        """Store ``value`` and return its key.

        The table keeps a copy, unless ``owned``: the caller hands over a
        value that nothing else refers to.
        """
        text = compact_json(value)
        key = object_key(text)
        if key not in self.objects:
            self.objects[key] = value if owned else json.loads(text)
            self._checked.add(key)
        return key

    def put_trace(self, trace) -> str:
        """Store a trace, given as its steps, and return its key.

        Each step object is stored once per table, since the records of a
        report share the steps of their common prefix: a step must not
        change after it is stored (a record's trace never does).
        """
        steps = [self._stored_step(step) for step in trace]
        path = tuple(text for _, text in steps)
        key = self._traces.get(path)
        if key is None:
            start = next((n for n in range(len(path) - 1, 0, -1) if path[:n] in self._traces), 0)
            parent = self._traces[path[:start]] if start else None
            value = {"parent": parent, "steps": [stored for stored, _ in steps[start:]]}
            key = self._traces[path] = self.put(value)
        return key

    def _stored_step(self, step: dict) -> tuple[dict, str]:
        """``step`` with its nested trace and spec replaced by keys, and its
        rendering."""
        hit = self._steps.get(id(step))
        if hit is None:
            stored = _map_step(step, self.put_trace, self.put)
            # holding ``step`` keeps its id from being reused
            hit = self._steps[id(step)] = (step, stored, compact_json(stored))
        return hit[1], hit[2]

    def put_record(self, record: ManifoldRecord) -> str:
        """Store ``record`` in its object form and return its key."""
        data = record_to_json(record)
        rows = data["gram"]
        entries = [[i, j, x] for i, row in enumerate(rows) for j, x in enumerate(row[i:], i) if x]
        data["gram"] = {"n": len(rows), "entries": entries}
        data["trace"] = self.put_trace(record.trace)
        # record_to_json built every container of ``data`` but the trace
        return self.put(data, owned=True)

    def get(self, key):
        """The object stored under ``key``, checked against its key once.

        Raises ValueError when there is no such object, and ObjectMismatch
        when its content does not hash to ``key``.
        """
        if not isinstance(key, str) or key not in self.objects:
            raise ValueError(f"no object {key!r} in the table")
        if key not in self._checked:
            if object_key(compact_json(self.objects[key])) != key:
                raise ObjectMismatch(f"object {key} does not hash to its key")
            self._checked.add(key)
        return self.objects[key]

    def trace(self, key) -> list:
        """The steps of the trace stored under ``key``, every key in them expanded."""
        node = self.get(key)
        steps = self._expanded.get(key)
        if steps is None:
            if not isinstance(node, dict) or not isinstance(node.get("steps"), list):
                raise ValueError(f"object {key} is not a trace")
            parent = node.get("parent")
            steps = [] if parent is None else self.trace(parent)
            steps += [_map_step(step, self.trace, self.get) for step in node["steps"]]
            self._expanded[key] = steps
        return list(steps)

    def record(self, key) -> dict:
        """The record stored under ``key``, in its `record_to_json` form."""
        obj = self.get(key)
        try:
            data = dict(obj)
            gram, basis = data["gram"], data["basis"]
            n = gram["n"]
            if n != len(basis):
                raise ValueError("the Gram rank does not match the basis")
            rows = [[0] * n for _ in range(n)]
            for i, j, x in gram["entries"]:
                rows[i][j] = rows[j][i] = x
            trace = data["trace"]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"object {key} is not a record: {exc}") from exc
        data["gram"] = rows
        data["trace"] = self.trace(trace)
        return data


# -- standard blocks -------------------------------------------------------------


# The small closed blocks the calculus keeps on the shelf, by name: S4,
# S2xS2, the twisted bundle S2xS2_twisted (odd form), T2xS2 with its marked
# product torus, and S1xS3.  None of them tracks a Seiberg-Witten element.
STANDARD_BLOCKS = {
    "S4": dict(pi1=trivial_presentation(), euler=2, form=IntSymMatrix.empty(), basis=()),
    "S2xS2": dict(
        pi1=trivial_presentation(), euler=4, form=hyperbolic_pair(), basis=("Sa", "Sb")
    ),
    "S2xS2_twisted": dict(
        pi1=trivial_presentation(),
        euler=4,
        form=IntSymMatrix.diagonal((1, -1)),
        basis=("Ca", "Cb"),
    ),
    "T2xS2": dict(
        pi1=pi1_Z2(),
        euler=0,
        form=hyperbolic_pair(),
        basis=("T", "S"),
        marks=(
            MarkedSubmanifold(
                kind="torus",
                label="T",
                homology_class=(1, 0),
                pi1_words=("x", "y"),
                framing="product",
                flags=frozenset({"self_intersection_zero"}),
                complement=("gens: x, y; rels: [x, y]", "1"),
            ),
        ),
    ),
    "S1xS3": dict(pi1=pi1_Z(), euler=0, form=IntSymMatrix.empty(), basis=()),
}


def standard_block(name: str) -> ManifoldRecord:
    """The record of the standard block ``name`` (a key of STANDARD_BLOCKS)."""
    if name not in STANDARD_BLOCKS:
        raise ValueError(f"unknown standard block {name!r}")
    fields = {"marks": (), **STANDARD_BLOCKS[name]}
    return ManifoldRecord(
        name=name,
        sw=None,
        sw_reason="untracked (standard block)",
        trace=({"op": "base", "constructor": "standard_block", "args": {"name": name}},),
        **fields,
    )


def product_T2_Sigma_g(g: int) -> ManifoldRecord:
    """The product of the torus with a genus-g surface, fully marked.

    H_2 has rank 4g + 2 in the product basis: the fiber torus T, the
    surface S, and for each handle the four mixed classes.  The closed
    Seiberg-Witten element is (t^-1 - t)^(2g-2) in the variable of [T],
    with relative factor (t^-1 - t)^(2g-1) attached to T for the gluing
    rule; the exponent bookkeeping of those two seeds is exactly what the
    fiber-sum composition test pins down.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    basis: list[str] = ["T", "S"]
    for i in range(1, g + 1):
        basis.extend((f"xa{i}", f"yb{i}", f"xb{i}", f"ya{i}"))
    b2 = len(basis)
    form = direct_sum(*([hyperbolic_pair()] * (2 * g + 1)))
    sw = u_factor(b2, unit_vector(b2, 0)) ** (2 * g - 2)
    pi1 = pi1_product_surface(g)
    complement_pres = GroupPresentation(pi1.generators, pi1.relators[:-1])
    meridian = word_to_text(pi1.relators[-1], pi1.generators)
    marks: list[MarkedSubmanifold] = [
        MarkedSubmanifold(
            kind="torus",
            label="T",
            homology_class=unit_vector(b2, 0),
            pi1_words=("x", "y"),
            framing="product",
            flags=frozenset({"self_intersection_zero", "symplectic"}),
            complement=(complement_pres.to_text(), meridian),
        )
    ]
    for i in range(1, g + 1):
        base = 2 + 4 * (i - 1)
        for offset, label, words in (
            (0, f"xa{i}", ("x", f"a{i}")),
            (2, f"xb{i}", ("x", f"b{i}")),
            (3, f"ya{i}", ("y", f"a{i}")),
        ):
            marks.append(
                MarkedSubmanifold(
                    kind="torus",
                    label=label,
                    homology_class=unit_vector(b2, base + offset),
                    pi1_words=words,
                    framing="lagrangian",
                    flags=frozenset({"self_intersection_zero", "lagrangian"}),
                )
            )
    for i in range(1, g + 1):
        marks.append(
            MarkedSubmanifold(
                kind="loop",
                label=f"loop_a{i}",
                homology_class=None,
                pi1_words=(f"a{i}",),
                framing="product",
            )
        )
        marks.append(
            MarkedSubmanifold(
                kind="loop",
                label=f"loop_b{i}",
                homology_class=None,
                pi1_words=(f"b{i}",),
                framing="product",
            )
        )
    return ManifoldRecord(
        name=f"T2xSigma{g}",
        pi1=pi1,
        euler=0,
        form=form,
        basis=tuple(basis),
        sw=sw,
        sw_reason="tracked",
        marks=tuple(marks),
        rel_tori=frozenset({"T"}),
        trace=(
            {"op": "base", "constructor": "product_T2_Sigma_g", "args": {"g": g}},
        ),
    )


def kodaira_thurston_block(g: int) -> ManifoldRecord:
    """The twisted counterpart of the product block, with free-quotient pi1.

    The fundamental group is the circle-times-mapping-torus group whose
    quotient by the two torus directions x, y is free of rank g.  H_2 has
    rank 2g + 2: the symplectic torus T = x x y with a dual F, and one
    hyperbolic pair of Lagrangian classes per handle.  Seiberg-Witten
    seeds match the product block: (t^-1 - t)^(2g-2) closed, relative
    factor (t^-1 - t)^(2g-1) on T, so iterated fiber sums of the g = 1
    block reproduce the g > 1 blocks at the tracked-invariant level.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    basis: list[str] = ["T", "F"]
    for i in range(1, g + 1):
        basis.extend((f"xb{i}", f"ya{i}"))
    b2 = len(basis)
    form = direct_sum(*([hyperbolic_pair()] * (g + 1)))
    sw = u_factor(b2, unit_vector(b2, 0)) ** (2 * g - 2)
    marks: list[MarkedSubmanifold] = [
        MarkedSubmanifold(
            kind="torus",
            label="T",
            homology_class=unit_vector(b2, 0),
            pi1_words=("x", "y"),
            framing="symplectic",
            flags=frozenset({"self_intersection_zero", "symplectic"}),
        )
    ]
    for i in range(1, g + 1):
        marks.append(
            MarkedSubmanifold(
                kind="torus",
                label=f"xb{i}",
                homology_class=unit_vector(b2, 2 + 2 * (i - 1)),
                pi1_words=("x", f"b{i}"),
                framing="lagrangian",
                flags=frozenset({"self_intersection_zero", "lagrangian"}),
            )
        )
    for i in range(1, g + 1):
        marks.append(
            MarkedSubmanifold(
                kind="loop",
                label=f"loop_b{i}",
                homology_class=None,
                pi1_words=(f"b{i}",),
                framing="lagrangian",
            )
        )
    return ManifoldRecord(
        name=f"N{g}",
        pi1=pi1_Ng(g),
        euler=0,
        form=form,
        basis=tuple(basis),
        sw=sw,
        sw_reason="tracked",
        marks=tuple(marks),
        rel_tori=frozenset({"T"}),
        trace=(
            {
                "op": "base",
                "constructor": "kodaira_thurston_block",
                "args": {"g": g},
            },
        ),
    )


# -- admissible input manifolds --------------------------------------------------


class AdmissibilityError(ValueError):
    """Raised with the full list of failed admissibility clauses."""

    def __init__(self, violations: list[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


_REQUIRED = object()


def _typed(data: dict, key: str, kind: type, default=_REQUIRED):
    """``data[key]``, which must be exactly a ``kind`` (so no bool for an int);
    ``default`` when the key is missing and a default is given."""
    if default is not _REQUIRED and key not in data:
        return default
    value = data[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _typed_items(data: dict, key: str, kind: type, default=_REQUIRED) -> tuple:
    """``data[key]`` as a tuple: a list whose entries are exactly ``kind``s."""
    items = tuple(_typed(data, key, list, default))
    for item in items:
        if type(item) is not kind:
            raise TypeError(
                f"{key!r} entries must be {kind.__name__}, got {type(item).__name__}"
            )
    return items


def admissible_from_spec(spec_text: str) -> ManifoldRecord:
    """Validate a manifold spec document and build its record.

    The document must supply a fundamental group that simplifies to the
    trivial presentation, a unimodular indefinite Gram matrix with two
    marked square-zero tori in hyperbolic position (each with a dual, all
    cross pairings zero), simply-connected-complement flags on both tori,
    a nonzero Seiberg-Witten element, and rank >= |signature| + 4.  Every
    failed clause is reported, not just the first.
    """
    try:
        data = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise AdmissibilityError([f"spec is not valid JSON: {exc}"]) from exc
    if type(data) is not dict:
        raise AdmissibilityError(
            [f"malformed spec: the document must be an object, got {type(data).__name__}"]
        )
    if data.get("format") != FORMAT_SPEC:
        raise AdmissibilityError(
            [f"spec format must be {FORMAT_SPEC!r}, got {data.get('format')!r}"]
        )
    violations: list[str] = []
    try:
        basis = _typed_items(data, "basis", str)
        form = IntSymMatrix.from_rows(_typed(data, "gram", list))
        euler = _typed(data, "euler", int)
        pi1 = GroupPresentation.parse(_typed(data, "pi1", str))
        marks = tuple(MarkedSubmanifold.from_json(m) for m in _typed(data, "marks", list))
        roles = _typed(data, "admissible", dict)
        for label in roles.values():
            if type(label) is not str:
                raise TypeError(f"'admissible' values must be str, got {type(label).__name__}")
        sw_text = _typed(data, "sw", str)
        name = _typed(data, "name", str, "M")
    except (KeyError, ValueError, TypeError) as exc:
        raise AdmissibilityError([f"malformed spec: {exc}"]) from exc
    if len(basis) != form.n:
        raise AdmissibilityError(["basis labels do not match the Gram rank"])
    try:
        sw = ring_from_text(sw_text, form.n)
    except ValueError as exc:
        raise AdmissibilityError([f"malformed sw element: {exc}"]) from exc

    if not simplifies_trivial(pi1):
        violations.append("pi1 does not simplify to the trivial presentation")
    if sw.is_zero:
        violations.append("no basic class (sw = 0)")

    indices: dict[str, int] = {}
    for role in ("T1", "S1", "T2", "S2"):
        label = roles.get(role)
        if label is None or label not in basis:
            violations.append(f"admissible role {role} missing or not a basis label")
        else:
            indices[role] = basis.index(label)
    if len(indices) == 4:
        violations.extend(admissible_check(form, indices))

    mark_by_label = {m.label: m for m in marks}
    for role in ("T1", "T2"):
        label = roles.get(role)
        mark = mark_by_label.get(label) if label else None
        if mark is None or mark.kind != "torus":
            violations.append(f"no torus mark for admissible role {role}")
            continue
        if "complement_simply_connected" not in mark.flags:
            violations.append(f"torus {label} lacks complement_simply_connected")
        if role in indices and mark.homology_class != unit_vector(
            form.n, indices[role]
        ):
            violations.append(
                f"torus {label} class must be the {role} basis vector"
            )
    free_rank, torsion = pi1.abelianization()
    if free_rank or torsion:
        violations.append("pi1 abelianization is nontrivial")
    if euler != 2 + form.n:
        violations.append(
            f"Euler characteristic {euler} != 2 + b2 = {2 + form.n} "
            "for a simply connected record"
        )
    if violations:
        raise AdmissibilityError(violations)

    return ManifoldRecord(
        name=name,
        pi1=pi1,
        euler=euler,
        form=form,
        basis=basis,
        sw=sw,
        sw_reason="tracked",
        marks=marks,
        rel_tori=frozenset({roles["T1"], roles["T2"]}),
        trace=(
            {"op": "base", "constructor": "admissible_from_spec", "args": {"spec": data}},
        ),
    )


# constructor -> (the function, the base step's args it takes: name -> JSON type)
BASE_CONSTRUCTORS = {
    "standard_block": (standard_block, {"name": str}),
    "product_T2_Sigma_g": (product_T2_Sigma_g, {"g": int}),
    "kodaira_thurston_block": (kodaira_thurston_block, {"g": int}),
    "admissible_from_spec": (lambda spec: admissible_from_spec(json.dumps(spec)), {"spec": dict}),
}

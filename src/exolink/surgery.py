"""Cut-and-paste operations on manifold records, with replayable traces.

Every operation is a pure function from records to a new record and appends
exactly one provenance step, so the final record can be rebuilt from its
trace (`build_from_trace`) and compared field for field.  Facts imported
from the literature fire only when their hypotheses are machine-checkable
from the record (flags, parity, witnesses), and each firing is logged with
its citation in the trace step; everything else is recomputed arithmetic.

The sign and parity bookkeeping follows three hard rules that the record
validator enforces after every step: chi = 2 - 2*b1 + b2; signature adds
under gluing (Novikov additivity); an even stabilization block is written
only when the surviving form certifies evenness.
"""
from __future__ import annotations

from dataclasses import replace

from .groupring import GroupRingElement, embed_knot_poly_at_class
from .grouppres import (
    GroupPresentation,
    free_product,
    fresh_names,
    invert_word,
    shift_word,
    svk_glue,
    word_to_text,
)
from .knots import KnotRecord, braid_to_text
from .lattice import (
    IntSymMatrix,
    direct_sum,
    find_nonspin_witness,
    hyperbolic_pair,
    invariants,
)
from .manifold import (
    BASE_CONSTRUCTORS,
    ManifoldRecord,
    MarkedSubmanifold,
    _typed,
    compact_json,
    invariant_tuple,
    simplifies_trivial,
    unit_vector,
)

CITE_KNOT_SURGERY = (
    "Fintushel-Stern knot surgery: the Seiberg-Witten element multiplies by "
    "the Alexander polynomial evaluated at twice the torus class"
)
CITE_TAUBES = (
    "Taubes-style gluing: the fiber sum's Seiberg-Witten element is the "
    "product of the two relative factors"
)
CITE_RELATIVE_FACTORS = (
    "B.D. Park's relative Seiberg-Witten values for punctured product blocks"
)
CITE_LOOP_SURGERY = "Wallace/Milnor: surgery on a framed loop in a 4-manifold"
CITE_NOVIKOV = "Novikov additivity of the signature"
CITE_DISSOLVE = (
    "Akbulut/Auckly/Baykur: a knot-surgered piece dissolves after a single "
    "S2xS2 stabilization"
)


class SurgeryError(ValueError):
    """An operation's hypotheses could not be certified from the record."""


def _carry(
    marks,
    move_class=None,
    drop_flags: frozenset[str] = frozenset(),
    words: tuple[GroupPresentation, int, tuple[str, ...]] | None = None,
    changes: dict[str, dict] | None = None,
) -> list[MarkedSubmanifold]:
    """``marks`` carried through an operation into the new record.

    ``move_class`` maps a homology class into the new basis (a mark without
    a class keeps none), each mark loses ``drop_flags`` and its complement
    model, because every operation changes the complement, and when the
    side's generators move its words are read in ``words`` = (the side's
    presentation, the offset of its generators, the new group's generator
    names).  ``changes[label]`` replaces further fields of that mark.
    """
    carried = []
    for mark in marks:
        fields = {"complement": None}
        if drop_flags:
            fields["flags"] = mark.flags - drop_flags
        if move_class is not None and mark.homology_class is not None:
            fields["homology_class"] = tuple(move_class(mark.homology_class))
        if words is not None:
            source, offset, names = words
            fields["pi1_words"] = tuple(
                word_to_text(shift_word(source.word(w), offset), names)
                for w in mark.pi1_words
            )
        if changes and mark.label in changes:
            fields.update(changes[mark.label])
        carried.append(replace(mark, **fields))
    return carried


def _labels_beside(a: ManifoldRecord, labels: list[str]) -> dict[str, str]:
    """Fresh names for another side's mark ``labels`` in a gluing onto ``a``.

    They avoid a's labels, ``belt[L]`` for each loop L of a and L for each
    belt ``belt[L]`` of a, so that either side's loops keep their belt
    labels free.
    """
    taken = {mark.label for mark in a.marks}
    for mark in a.marks:
        if mark.kind == "loop":
            taken.add(f"belt[{mark.label}]")
        elif mark.label.startswith("belt[") and mark.label.endswith("]"):
            taken.add(mark.label[len("belt["):-1])
    return dict(zip(labels, fresh_names(taken, labels)))


def _rel_tori(
    sw: GroupRingElement | None, marks: list[MarkedSubmanifold], labels: set[str]
) -> frozenset[str]:
    """The marks named in ``labels`` with a nonzero class, if ``sw`` is tracked."""
    if sw is None:
        return frozenset()
    return frozenset(
        m.label
        for m in marks
        if m.label in labels and m.homology_class is not None and any(m.homology_class)
    )


# -- knot surgery ----------------------------------------------------------------


def knot_surgery(m: ManifoldRecord, torus_label: str, knot: KnotRecord) -> ManifoldRecord:
    """Replace T^2 x D^2 by (twisted circle) x knot complement.

    The fundamental group, Euler characteristic, and intersection form are
    untouched; the Seiberg-Witten element and every relative factor pick up
    the knot's Alexander polynomial evaluated at twice the torus class
    (each factor is derived from the new sw, so only sw is multiplied).
    The torus keeps its position but its framing is retagged, since the new
    framing depends on the knot.
    """
    mark = m.mark(torus_label)
    if mark.kind != "torus":
        raise SurgeryError(f"{torus_label!r} is not a torus mark")
    if "self_intersection_zero" not in mark.flags:
        raise SurgeryError(f"torus {torus_label!r} lacks self_intersection_zero")
    if "complement_simply_connected" not in mark.flags:
        raise SurgeryError(
            f"torus {torus_label!r} lacks complement_simply_connected; the "
            "surgered manifold's group would change"
        )
    if mark.homology_class is None or not any(mark.homology_class):
        raise SurgeryError("knot surgery needs a homologically essential torus")
    if m.sw is None:
        raise SurgeryError(
            f"sw untracked ({m.sw_reason}); the product rule has nothing to act on"
        )
    sw = m.sw * embed_knot_poly_at_class(knot.alexander, mark.homology_class)
    # A syntactically trivial braid reglues the same pieces back; any other
    # braid puts the knot group into the surgered torus's complement.
    surgered_flags = mark.flags
    if knot.braid.letters:
        surgered_flags = surgered_flags - {"complement_simply_connected"}
    marks = _carry(
        m.marks,
        changes={torus_label: {"framing": f"tau_K[{knot.name}]", "flags": surgered_flags}},
    )
    step = {
        "op": "knot_surgery",
        "torus": torus_label,
        "knot": {"name": knot.name, "braid": braid_to_text(knot.braid)},
        "cite": CITE_KNOT_SURGERY,
        "delta": {"sw": "multiplied by the embedded Alexander polynomial"},
    }
    return replace(
        m,
        name=f"{m.name}[{knot.name}]",
        sw=sw,
        sw_reason="tracked",
        marks=tuple(marks),
        trace=m.trace + (step,),
    )


# -- generalized fiber sum -------------------------------------------------------


def _glue_pair(form: IntSymMatrix, mark: MarkedSubmanifold) -> tuple[int, int]:
    """The basis indices (i, j) of a glue torus's class and of its dual."""
    cls = mark.homology_class
    if cls is None or sum(abs(c) for c in cls) != 1 or 1 not in cls:
        raise SurgeryError(
            f"glue torus {mark.label!r} class must be a positive basis vector"
        )
    i = cls.index(1)
    partners = [j for j in range(form.n) if j != i and form.entry(i, j) != 0]
    if len(partners) != 1 or form.entry(i, partners[0]) != 1:
        raise SurgeryError(
            "glued torus must pair with exactly one dual basis class, with "
            "intersection number one"
        )
    return i, partners[0]


def fiber_sum(a: ManifoldRecord, torus_a: str, b: ManifoldRecord, torus_b: str) -> ManifoldRecord:
    """Glue two records along marked square-zero tori.

    chi and signature add.  H_2 keeps A's basis (the glued dual absorbs the
    B-side dual's self-intersection) and appends B's leftover block, which
    must split off from B's glued pair; the resulting rank is re-derived
    from chi and the glued group's abelianization and must agree, which is
    the check that refuses gluings whose homology this block bookkeeping
    cannot represent (for example two simply connected sides, where rim
    tori appear).

    The fundamental group is computed by one of two certified routes.  When
    one glue torus has a simply connected complement (A's tried first) and
    its side marks no words, the group is the other side's quotient by the
    glued torus directions.  Otherwise it is the van Kampen pushout of
    complement models with the meridians identified when both tori carry
    them, else of the closed groups, recorded as a model (flag "pi1_model").

    The Seiberg-Witten element is the product of the two relative factors
    when both are tracked, else untracked with a reason.
    """
    ta, tb = a.mark(torus_a), b.mark(torus_b)
    for mark, side in ((ta, "A"), (tb, "B")):
        if mark.kind != "torus":
            raise SurgeryError(f"{mark.label!r} on side {side} is not a torus mark")
        if "self_intersection_zero" not in mark.flags:
            raise SurgeryError(
                f"torus {mark.label!r} on side {side} lacks self_intersection_zero"
            )
    (ia, ja), (ib, jb) = _glue_pair(a.form, ta), _glue_pair(b.form, tb)
    leftover = [k for k in range(b.form.n) if k not in (ib, jb)]
    for k in (ib, jb):
        for l in leftover:
            if b.form.entry(k, l) != 0:
                raise SurgeryError(
                    "glued pair does not split off the leftover block on side B"
                )

    n_a, n_new = a.form.n, a.form.n + len(leftover)
    new_basis = a.basis + fresh_names(a.basis, [b.basis[k] for k in leftover])
    rows = [[a.form.entry(i, j) for j in range(n_a)] + [0] * len(leftover) for i in range(n_a)]
    rows[ja][ja] += b.form.entry(jb, jb)
    for bi, k in enumerate(leftover):
        row = [0] * n_new
        for bj, l in enumerate(leftover):
            row[n_a + bj] = b.form.entry(k, l)
        rows.append(row)
    form = IntSymMatrix(tuple(map(tuple, rows)))

    # each side's H_2 map, for its marks' classes and its exponents alike
    pad = (0,) * len(leftover)
    b_dest = {ib: ia, jb: ja}
    for bi, k in enumerate(leftover):
        b_dest[k] = n_a + bi

    def move_a(cls):
        return cls + pad

    def move_b(cls):
        out = [0] * n_new
        for k, c in enumerate(cls):
            out[b_dest[k]] += c
        return out

    # fundamental group
    record_flags = set(a.flags | b.flags)
    b_words = None
    for x, tx, y, ty, side in ((a, ta, b, tb, "B"), (b, tb, a, ta, "A")):
        if "complement_simply_connected" in tx.flags and not any(
            m.pi1_words for m in x.marks
        ):
            pi1 = y.pi1.quotient_by_normal_closure([y.pi1.word(w) for w in ty.pi1_words])
            pi1_route = f"quotient of side {side} by the glued torus directions"
            glued_words = ty.pi1_words
            break
    else:
        if ta.complement is not None and tb.complement is not None:
            pa, pb = (GroupPresentation.parse(t.complement[0]) for t in (ta, tb))
            meridians = [(ta.complement[1], tb.complement[1])]
            pi1_route = "pushout of the complement models with meridians identified"
            refusal = "complement-model gluing needs both tori's directions"
        else:
            pa, pb, meridians = a.pi1, b.pi1, []
            pi1_route = "pushout of the closed groups (tracked model)"
            refusal = (
                "no certified fundamental-group route: need a simply connected "
                "complement flag, complement models, or torus directions on "
                "both sides"
            )
            record_flags.add("pi1_model")
        if len(ta.pi1_words) != 2 or len(tb.pi1_words) != 2:
            raise SurgeryError(refusal)
        pairs = [(pa.word(u), pb.word(v)) for u, v in zip(ta.pi1_words, tb.pi1_words)]
        pairs += [(pa.word(u), invert_word(pb.word(v))) for u, v in meridians]
        pi1 = svk_glue(pa, pb, pairs)
        glued_words = ta.pi1_words
        b_words = (pb, len(pa.generators), pi1.generators)

    euler = a.euler + b.euler
    b1 = pi1.abelianization()[0]
    if euler != 2 - 2 * b1 + n_new:
        raise SurgeryError(
            f"fiber-sum homology bookkeeping failed: basis rank {n_new} but "
            f"chi - 2 + 2*b1 = {euler - 2 + 2 * b1}; this gluing is outside "
            "the block rule"
        )

    # Seiberg-Witten element from the relative factors
    fa = a.rel_factor(torus_a) if torus_a in a.rel_tori else None
    fb = b.rel_factor(torus_b) if torus_b in b.rel_tori else None
    if fa is not None and fb is not None:
        for (exps, _coeff) in fb.terms:
            if exps[jb] != 0:
                raise SurgeryError(
                    "relative factor involves the glued dual class; unsupported"
                )
        sw = fa.substitute_hom(move_a, n_new) * fb.substitute_hom(move_b, n_new)
        sw_reason = "tracked"
    else:
        missing = []
        if fa is None:
            missing.append(f"{a.name}:{torus_a}")
        if fb is None:
            missing.append(f"{b.name}:{torus_b}")
        sw = None
        sw_reason = f"untracked (missing relative factor for {', '.join(missing)})"

    # marks: glued torus re-marked on A's label; B's glue mark consumed
    drop = frozenset({"complement_simply_connected"})
    glued = {
        "pi1_words": glued_words,
        "framing": f"glued[{ta.framing}|{tb.framing}]",
        "flags": frozenset({"self_intersection_zero"}),
    }
    b_marks = [old for old in b.marks if old.label != torus_b]
    labels = _labels_beside(a, [old.label for old in b_marks])
    marks = _carry(a.marks, move_a, drop, changes={torus_a: glued})
    marks += _carry(
        b_marks, move_b, drop, b_words, {old: {"label": new} for old, new in labels.items()}
    )

    step = {
        "op": "fiber_sum",
        "torus": torus_a,
        "other_torus": torus_b,
        "other_trace": list(b.trace),
        "framing_pairing": None,
        "pi1_route": pi1_route,
        "cite": f"{CITE_TAUBES}; {CITE_RELATIVE_FACTORS}; {CITE_NOVIKOV}",
        "delta": {"chi": b.euler, "signature": invariants(b.form).signature},
    }
    return ManifoldRecord(
        name=f"{a.name}#{b.name}",
        pi1=pi1,
        euler=euler,
        form=form,
        basis=new_basis,
        sw=sw,
        sw_reason=sw_reason,
        marks=tuple(marks),
        rel_tori=_rel_tori(
            sw, marks, {torus_a, *a.rel_tori, *(labels[l] for l in b.rel_tori if l in labels)}
        ),
        flags=frozenset(record_flags),
        trace=a.trace + (step,),
    )


# -- loop and sphere surgery -----------------------------------------------------


def loop_surgery(
    m: ManifoldRecord,
    loop_label: str,
    word: str | None = None,
    nullhomotopic: bool = False,
) -> ManifoldRecord:
    """Replace S^1 x D^3 by D^2 x S^2 along a framed loop.

    The loop's word is quotiented out of the fundamental group and chi
    rises by two.  The effect on H_2 depends on the loop's homotopy class,
    and the operation refuses to guess: a certified nullhomotopic loop adds
    a hyperbolic pair when the surviving form certifies evenness (else an
    odd pair plus an undetermined-parity flag), while an essential loop is
    accepted only when the first Betti number visibly drops by one, leaving
    the form untouched.  Either way the belt sphere joins the marked link
    and the Seiberg-Witten element stops being tracked.

    A loop absent from the marks may be supplied inline via ``word`` (it is
    recorded in the trace step for replay); ``nullhomotopic`` is accepted
    only when certifiable.
    """
    existing = {mark.label: mark for mark in m.marks}
    if loop_label in existing:
        mark = existing[loop_label]
        if mark.kind != "loop":
            raise SurgeryError(f"{loop_label!r} is not a loop mark")
        if word is not None and word != mark.pi1_words[0]:
            raise SurgeryError("inline word contradicts the marked loop")
        word = mark.pi1_words[0]
        nullhomotopic = nullhomotopic or "nullhomotopic" in mark.flags
    elif word is None:
        raise SurgeryError(f"no loop mark {loop_label!r} and no inline word")
    belt = f"belt[{loop_label}]"
    if belt in existing:
        # an inline-word loop is no mark, so surgering its label twice
        # would give the second belt the first one's label
        raise SurgeryError(f"belt sphere {belt!r} already marks an earlier loop surgery")
    loop_word = m.pi1.word(word)
    if nullhomotopic and loop_word and not simplifies_trivial(m.pi1):
        raise SurgeryError(
            f"cannot certify loop {loop_label!r} nullhomotopic: the word is "
            "nonempty and the group is not certified trivial"
        )
    pi1 = m.pi1.quotient_by_normal_closure([loop_word])
    b1_old, b1_new = m.b1, pi1.abelianization()[0]

    flags = set(m.flags)
    if nullhomotopic:
        if b1_new != b1_old:
            raise SurgeryError("nullhomotopic loop may not change b1")
        inv = invariants(m.form)
        if m.form.is_even() and inv.unimodular:
            block = hyperbolic_pair()
            parity = "even (H)"
            belt_tail = (1, 0)
        else:
            block = IntSymMatrix.diagonal((1, -1))
            parity = "undetermined"
            flags.add("undetermined_parity")
            belt_tail = (1, -1)
        form = direct_sum(m.form, block)
        basis = m.basis + (f"e[{loop_label}]", f"f[{loop_label}]")
        pad = (0, 0)
        belt_class = (0,) * m.form.n + belt_tail
        branch = "stabilizing"
    else:
        if b1_new != b1_old - 1:
            raise SurgeryError(
                f"cannot certify loop {loop_label!r} essential: b1 went "
                f"{b1_old} -> {b1_new}, not down by one"
            )
        form = m.form
        basis = m.basis
        pad = ()
        belt_class = (0,) * m.form.n
        parity = None
        branch = "essential"

    marks = _carry(
        [old for old in m.marks if old.label != loop_label], lambda cls: cls + pad
    )
    marks.append(
        MarkedSubmanifold(
            kind="sphere_link_component",
            label=belt,
            homology_class=belt_class,
            framing="belt",
            flags=frozenset({"trivial_normal_bundle"}),
        )
    )
    step = {
        "op": "loop_surgery",
        "loop": loop_label,
        "word": word,
        "nullhomotopic": nullhomotopic,
        "branch": branch,
        "parity": parity,
        "cite": CITE_LOOP_SURGERY,
        "delta": {"chi": 2},
    }
    return ManifoldRecord(
        name=f"{m.name}*",
        pi1=pi1,
        euler=m.euler + 2,
        form=form,
        basis=basis,
        sw=None,
        sw_reason="stabilized",
        marks=tuple(marks),
        flags=frozenset(flags),
        trace=m.trace + (step,),
    )


def _belt_step(m: ManifoldRecord, sphere_label: str) -> int:
    """Index of the trace step whose loop surgery created a belt sphere."""
    mark = m.mark(sphere_label)
    if mark.kind != "sphere_link_component":
        raise SurgeryError(f"{sphere_label!r} is not a sphere-link component")
    for i, step in enumerate(m.trace):
        if _step_fields("trace", step, {"op": str})["op"] != "loop_surgery":
            continue
        loop = _step_fields("loop_surgery", step, {"loop": str})["loop"]
        if f"belt[{loop}]" == sphere_label:
            return i
    raise SurgeryError(
        f"component {sphere_label!r} lacks reverse-trace data; it was not "
        "created by a loop surgery in this record's trace"
    )


def sphere_surgery(
    m: ManifoldRecord, *sphere_labels: str, memo: ReplayTrie | None = None
) -> ManifoldRecord:
    """Undo the loop surgeries that created the named belt spheres, by replay.

    Replaces each D^2 x S^2 back by S^1 x D^3: the trace steps that created
    the named components are removed and the record is rebuilt once, so the
    result is field-for-field the record that never did those surgeries,
    and the same as surgering the components one at a time.  The rebuild
    walks ``memo``, the command's replay trie (see `build_from_trace`), or
    a fresh one.
    """
    if not sphere_labels:
        raise SurgeryError("sphere surgery needs at least one link component")
    if len(set(sphere_labels)) != len(sphere_labels):
        raise SurgeryError(f"link components named more than once: {sphere_labels}")
    drop = {_belt_step(m, label) for label in sphere_labels}
    return build_from_trace(
        tuple(s for i, s in enumerate(m.trace) if i not in drop), memo=memo
    )


def _zero_log_transform(m: ManifoldRecord, torus_label: str) -> ManifoldRecord:
    """Multiplicity-zero log transform along a marked Lagrangian torus.

    The regluing sends the meridian to the pushoff of the torus direction
    named by the mark's second word, so the group is quotiented by that
    word, the torus and its hyperbolic dual leave the second homology,
    and the Euler characteristic is unchanged.  Its step names the torus,
    so the lemma suite's records, which use it, replay like any other.
    """
    mark = m.mark(torus_label)
    if mark.kind != "torus":
        raise SurgeryError(f"{torus_label!r} is not a torus mark")
    if len(mark.pi1_words) != 2:
        raise SurgeryError(f"{torus_label!r} does not carry its two directions")
    removed = set(_glue_pair(m.form, mark))
    keep = [i for i in range(m.form.n) if i not in removed]
    marks = _carry(
        [
            old
            for old in m.marks
            if old.label != torus_label
            and not (old.homology_class and any(old.homology_class[i] for i in removed))
        ],
        lambda cls: [cls[i] for i in keep],
    )
    return replace(
        m,
        name=f"{m.name}_L0[{torus_label}]",
        pi1=m.pi1.quotient_by_normal_closure([m.pi1.word(mark.pi1_words[1])]),
        form=IntSymMatrix(tuple(tuple(m.form.entry(i, j) for j in keep) for i in keep)),
        basis=tuple(m.basis[i] for i in keep),
        sw=None,
        sw_reason="untracked (zero log transform)",
        marks=tuple(marks),
        rel_tori=frozenset(),
        trace=m.trace + ({"op": "zero_log_transform", "torus": torus_label},),
    )


# -- connected sum ---------------------------------------------------------------


def _is_s4_like(m: ManifoldRecord) -> bool:
    return m.b2 == 0 and m.pi1.abelianization() == (0, ())


def connected_sum(a: ManifoldRecord, b: ManifoldRecord) -> ManifoldRecord:
    """Connected sum: chi adds minus two, forms add, groups free-product.

    Summing with a standard 4-sphere record keeps every tracked field; any
    other sum stops tracking the Seiberg-Witten element, with the reason
    recording whether both pieces had positive-definite part.
    """
    pi1, offset = free_product(a.pi1, b.pi1)
    basis = a.basis + fresh_names(a.basis, b.basis)
    form = direct_sum(a.form, b.form)
    if _is_s4_like(b):
        sw, sw_reason = a.sw, a.sw_reason
    elif _is_s4_like(a):
        sw, sw_reason = b.sw, b.sw_reason
    elif invariants(a.form).b_plus >= 1 and invariants(b.form).b_plus >= 1:
        sw, sw_reason = None, "untracked (connected sum of b+ >= 1 pieces)"
    else:
        sw, sw_reason = None, "untracked (connected sum)"

    labels = _labels_beside(a, [old.label for old in b.marks])
    marks = _carry(a.marks, lambda cls: cls + (0,) * b.form.n)
    marks += _carry(
        b.marks,
        lambda cls: (0,) * a.form.n + cls,
        words=(b.pi1, offset, pi1.generators),
        changes={old: {"label": new} for old, new in labels.items()},
    )
    step = {
        "op": "connected_sum",
        "other_trace": list(b.trace),
        "cite": CITE_NOVIKOV,
        "delta": {"chi": b.euler - 2, "signature": invariants(b.form).signature},
    }
    return ManifoldRecord(
        name=f"{a.name}#{b.name}",
        pi1=pi1,
        euler=a.euler + b.euler - 2,
        form=form,
        basis=basis,
        sw=sw,
        sw_reason=sw_reason,
        marks=tuple(marks),
        rel_tori=_rel_tori(sw, marks, {*a.rel_tori, *(labels[l] for l in b.rel_tori)}),
        flags=a.flags | b.flags,
        trace=a.trace + (step,),
    )


# -- trace replay ----------------------------------------------------------------


class ReplayTrie(dict):
    """The replay trie of one command (see `build_from_trace`), with the key
    of each step it has met: the step's `compact_json`.

    The records of a command share the step objects of their common trace
    prefixes, so ``key`` renders each step object's key once.  A step must
    not change once it is in a trace (a record's trace never does); the
    cache holds each step, so that no other object can take its id.
    """

    def __init__(self) -> None:
        super().__init__()
        self._keys: dict[int, tuple[dict, str]] = {}

    def key(self, step: dict) -> str:
        hit = self._keys.get(id(step))
        if hit is None:
            hit = self._keys[id(step)] = (step, compact_json(step))
        return hit[1]


def build_from_trace(trace, memo: ReplayTrie | None = None) -> ManifoldRecord:
    """Rebuild a record by replaying its provenance trace from the base step.

    The replay walks ``memo``, the replay trie that the replays of one
    command share, or a fresh one.  The trie maps each first step's key to
    a node ``(record, children)``: the record replayed up to that step, and
    the trie of the steps that extend it.  A replay resumes from the
    longest prefix of its trace already in the trie, and nested
    ``other_trace`` replays use the same trie, so each distinct prefix is
    replayed once, whatever the order of the replays.  Operations are
    deterministic, so equal prefixes give equal records.  The trie lives
    as long as the command and only ever holds replayed records, never one
    built forward, so comparing a replay with a forward-built record stays
    a real check.
    """
    steps = list(trace)
    if not steps:
        raise ValueError("trace must start with a base constructor step")
    if memo is None:
        memo = ReplayTrie()
    record, level = None, memo
    for step in steps:
        key = memo.key(step)
        node = level.get(key)
        if node is None:
            node = level[key] = (_replay_step(record, step, memo), {})
        record, level = node
    return record


def _replay_base(_record, _step, constructor: str, args: dict) -> ManifoldRecord:
    if constructor not in BASE_CONSTRUCTORS:
        raise ValueError(f"unknown base constructor {constructor!r}")
    build, fields = BASE_CONSTRUCTORS[constructor]
    return build(**_step_fields("base", args, fields))


# op -> (its replay, the fields it reads: name -> exact JSON type, an int's
# range, or a nested object's fields).  A replay takes the record so far,
# the step and those fields in order, with ``other_trace`` already replayed.
_REPLAY = {
    "base": (_replay_base, {"constructor": str, "args": dict}),
    "knot_surgery": (
        lambda m, _, torus, knot: knot_surgery(m, torus, KnotRecord.from_braid(**knot)),
        {"torus": str, "knot": {"name": str, "braid": str}},
    ),
    "fiber_sum": (
        lambda m, _, *f: fiber_sum(m, *f),
        {"torus": str, "other_trace": list, "other_torus": str},
    ),
    "loop_surgery": (
        lambda m, _, *f: loop_surgery(m, *f),
        {"loop": str, "word": str, "nullhomotopic": bool},
    ),
    "zero_log_transform": (lambda m, _, torus: _zero_log_transform(m, torus), {"torus": str}),
    "connected_sum": (lambda m, _, other: connected_sum(m, other), {"other_trace": list}),
    "note": (lambda m, step: replace(m, trace=m.trace + (step,)), {}),
}


def _step_fields(op: str, data, fields: dict) -> dict:
    """``fields`` (see `_REPLAY`) read from ``data``, a step of ``op`` or an object in it."""
    if not isinstance(data, dict):
        raise ValueError(f"a trace step must be an object, got {type(data).__name__}")
    values = {}
    for name, kind in fields.items():
        json_type = dict if isinstance(kind, dict) else int if isinstance(kind, range) else kind
        try:
            value = _typed(data, name, json_type)
        except KeyError as exc:
            raise ValueError(f"{op} step: missing field {name!r}") from exc
        except TypeError as exc:
            raise ValueError(f"{op} step: {exc}") from exc
        if isinstance(kind, range) and value not in kind:
            raise ValueError(f"{op} step: {name!r} must be in {kind[0]}..{kind[-1]}, got {value}")
        values[name] = _step_fields(op, value, kind) if isinstance(kind, dict) else value
    return values


def _replay_step(record: ManifoldRecord | None, step, memo: ReplayTrie) -> ManifoldRecord:
    """``record`` after one trace step; ``None`` stands before the base step.

    The step replays through its op's row of `_REPLAY`, whose fields are all
    read before the operation runs.  A step that is not an object, names no
    known op, is a base step but not the first, or has a field missing, of
    the wrong type or out of its range raises one ValueError naming the op
    and the field; what the operation raises passes through as is.
    """
    op = _step_fields("trace", step, {"op": str})["op"]
    if op not in _REPLAY:
        raise ValueError(f"unknown trace op {op!r}")
    if (op == "base") != (record is None):
        raise ValueError(f"{op} step: a trace has one base step, its first")
    replay, fields = _REPLAY[op]
    values = _step_fields(op, step, fields)
    if "other_trace" in values:
        values["other_trace"] = build_from_trace(values["other_trace"], memo=memo)
    return replay(record, step, *values.values())


# -- literature rewrite rules ----------------------------------------------------


def _without_knot_step(trace) -> tuple[int, tuple, dict] | None:
    """(index of the top-level step that holds the first knot_surgery step,
    ``trace`` without that step, the step), top level first, then nested;
    only the steps that contain it are rebuilt, the others are shared."""
    steps = list(trace)
    for i, step in enumerate(steps):
        if step.get("op") == "knot_surgery":
            return i, tuple(steps[:i] + steps[i + 1 :]), step
    for i, step in enumerate(steps):
        found = _without_knot_step(step.get("other_trace", ()))
        if found is not None:
            steps[i] = {**step, "other_trace": list(found[1])}
            return i, tuple(steps), found[2]
    return None


_S2XS2_TRACE = [{"op": "base", "constructor": "standard_block", "args": {"name": "S2xS2"}}]


def dissolve_knot_surgery_after_stabilization(
    m: ManifoldRecord, memo: ReplayTrie | None = None
) -> ManifoldRecord:
    """Erase a knot-surgery step from a trace that was later stabilized.

    Fires when the trace contains a knot-surgery step followed (at top
    level) by a connected sum with the standard S2xS2 block; the trace is
    rebuilt without the knot step and a note records the dissolution.  All
    tracked invariants are unchanged, which is re-verified.  Applying the
    rule twice equals applying it once; a record that never had a knot
    surgery is refused.

    The note, the one step that names the knot, comes last, so under a
    shared ``memo`` (the replay trie of `build_from_trace`) the knot-free
    prefix is replayed once for every knot dissolved from the same record.
    The rebuilt trace shares every step object off the knot step's path.
    """
    found = _without_knot_step(m.trace)
    if found is None:
        for step in m.trace:
            if step.get("op") == "note" and step.get("event") == "dissolved_knot_surgery":
                return m
        raise SurgeryError("no knot surgery step in the trace; nothing to dissolve")
    container, new_trace, removed = found
    stabilized = any(
        step.get("op") == "connected_sum" and step["other_trace"] == _S2XS2_TRACE
        for step in m.trace[container + 1 :]
    )
    if not stabilized:
        raise SurgeryError(
            "knot surgery present but no later S2xS2 stabilization; the "
            "dissolution rule does not apply"
        )
    note = {
        "op": "note",
        "event": "dissolved_knot_surgery",
        "knot": removed["knot"]["name"],
        "cite": CITE_DISSOLVE,
    }
    rebuilt = build_from_trace(new_trace + (note,), memo=memo)
    before, after = invariant_tuple(m), invariant_tuple(rebuilt)
    if before != after:
        raise SurgeryError(
            f"dissolution changed tracked invariants: {before} -> {after}"
        )
    return rebuilt


def mandelbaum_gompf_hypotheses(
    x: ManifoldRecord, torus_label: str
) -> tuple[str, str | None]:
    """Certify the stabilization-dissolution hypotheses on the X side.

    Returns (branch, detail): branch "spin" when the form is even and the
    group simplifies to trivial, "nonspin-complement" when an odd witness
    class orthogonal to the glued torus is found, else raises naming the
    missing hypothesis.
    """
    mark = x.mark(torus_label)
    if mark.kind != "torus":
        raise SurgeryError(f"{torus_label!r} is not a torus mark")
    if not simplifies_trivial(x.pi1):
        raise SurgeryError("X is not certified simply connected")
    if "complement_simply_connected" not in mark.flags:
        raise SurgeryError(
            f"torus {torus_label!r} lacks complement_simply_connected"
        )
    if x.form.is_even():
        return "spin", None
    if mark.homology_class is None:
        raise SurgeryError("glued torus needs a homology class for the witness hunt")
    i, j = _glue_pair(x.form, mark)
    try:
        witness = find_nonspin_witness(
            x.form, unit_vector(x.form.n, i), unit_vector(x.form.n, j)
        )
    except ValueError as exc:
        raise SurgeryError(f"non-spin witness hunt refused: {exc}") from exc
    if witness is None:
        raise SurgeryError(
            "no non-spin witness in the torus complement and X is not "
            "certified spin"
        )
    return "nonspin-complement", f"witness basis combination {witness}"

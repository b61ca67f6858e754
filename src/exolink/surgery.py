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


def _carry(mark: MarkedSubmanifold, move_class=None, **changes) -> MarkedSubmanifold:
    """``mark`` carried through an operation into the new record.

    ``move_class`` maps a homology class into the new basis (a mark without
    a class keeps none), the complement model is dropped because every
    operation changes the complement, and ``changes`` replace other fields.
    """
    cls = mark.homology_class
    if move_class is not None and cls is not None:
        cls = move_class(cls)
    return replace(mark, homology_class=cls, complement=None, **changes)


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
    marks = tuple(
        _carry(old, framing=f"tau_K[{knot.name}]", flags=surgered_flags)
        if old.label == torus_label
        else _carry(old)
        for old in m.marks
    )
    step = {
        "op": "knot_surgery",
        "torus": torus_label,
        "knot": {"name": knot.name, "braid": braid_to_text(knot.braid)},
        "cite": CITE_KNOT_SURGERY,
        "delta": {"sw": "multiplied by the embedded Alexander polynomial"},
    }
    return ManifoldRecord(
        name=f"{m.name}[{knot.name}]",
        pi1=m.pi1,
        euler=m.euler,
        form=m.form,
        basis=m.basis,
        sw=sw,
        sw_reason="tracked",
        marks=marks,
        rel_tori=m.rel_tori,
        flags=m.flags,
        trace=m.trace + (step,),
    )


# -- generalized fiber sum -------------------------------------------------------


def _hyperbolic_partner(form: IntSymMatrix, i: int) -> int:
    partners = [j for j in range(form.n) if j != i and form.entry(i, j) != 0]
    if len(partners) != 1 or form.entry(i, partners[0]) != 1:
        raise SurgeryError(
            "glued torus must pair with exactly one dual basis class, with "
            "intersection number one"
        )
    return partners[0]


def _basis_index_of_class(record: ManifoldRecord, mark: MarkedSubmanifold) -> int:
    cls = mark.homology_class
    if cls is None or sum(abs(c) for c in cls) != 1 or 1 not in cls:
        raise SurgeryError(
            f"glue torus {mark.label!r} class must be a positive basis vector"
        )
    return cls.index(1)


def fiber_sum(
    a: ManifoldRecord,
    torus_a: str,
    b: ManifoldRecord,
    torus_b: str,
    framing_pairing: tuple[str, str] | None = None,
) -> ManifoldRecord:
    """Glue two records along marked square-zero tori.

    chi and signature add.  H_2 keeps A's basis (the glued dual absorbs the
    B-side dual's self-intersection) and appends B's leftover block, which
    must split off from B's glued pair; the resulting rank is re-derived
    from chi and the glued group's abelianization and must agree, which is
    the check that refuses gluings whose homology this block bookkeeping
    cannot represent (for example two simply connected sides, where rim
    tori appear).

    The fundamental group is computed by the best certified route: a
    quotient when one glue torus has a simply connected complement, the
    pushout of complement models when both sides carry them, else the
    pushout of the closed groups recorded as a model (flag "pi1_model").

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
    if framing_pairing is not None and framing_pairing != (ta.framing, tb.framing):
        raise SurgeryError(
            f"framing tags incompatible: declared {framing_pairing}, "
            f"marks carry {(ta.framing, tb.framing)}"
        )
    ia, ib = _basis_index_of_class(a, ta), _basis_index_of_class(b, tb)
    ja, jb = _hyperbolic_partner(a.form, ia), _hyperbolic_partner(b.form, ib)
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
    form = IntSymMatrix.from_rows(rows)

    # coordinate pushforward for B-side classes and exponents
    b_dest = {ib: ia, jb: ja}
    for bi, k in enumerate(leftover):
        b_dest[k] = n_a + bi

    def push_class(cls: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * n_new
        for k, c in enumerate(cls):
            out[b_dest[k]] += c
        return tuple(out)

    # pushforward matrices for substitute_hom: target rows, source columns
    a_matrix = [
        [1 if i == j else 0 for j in range(n_a)] for i in range(n_new)
    ]
    b_matrix = [
        [1 if b_dest[k] == i else 0 for k in range(b.form.n)] for i in range(n_new)
    ]

    # fundamental group
    record_flags = set(a.flags | b.flags)
    glued_words = ta.pi1_words
    remap_b_words = None
    if "complement_simply_connected" in ta.flags and not any(
        m.pi1_words for m in a.marks
    ):
        words = [b.pi1.word(w) for w in tb.pi1_words]
        pi1 = b.pi1.quotient_by_normal_closure(words)
        pi1_route = "quotient of side B by the glued torus directions"
        glued_words = tb.pi1_words
    elif "complement_simply_connected" in tb.flags and not any(
        m.pi1_words for m in b.marks
    ):
        words = [a.pi1.word(w) for w in ta.pi1_words]
        pi1 = a.pi1.quotient_by_normal_closure(words)
        pi1_route = "quotient of side A by the glued torus directions"
    elif ta.complement is not None and tb.complement is not None:
        pa = GroupPresentation.parse(ta.complement[0])
        pb = GroupPresentation.parse(tb.complement[0])
        if len(ta.pi1_words) != 2 or len(tb.pi1_words) != 2:
            raise SurgeryError("complement-model gluing needs both tori's directions")
        pairs = [
            (pa.word(ta.pi1_words[0]), pb.word(tb.pi1_words[0])),
            (pa.word(ta.pi1_words[1]), pb.word(tb.pi1_words[1])),
            (pa.word(ta.complement[1]), invert_word(pb.word(tb.complement[1]))),
        ]
        pi1 = svk_glue(pa, pb, pairs)
        pi1_route = "pushout of the complement models with meridians identified"
        offset = len(pa.generators)
        remap_b_words = (pb, offset, pi1.generators)
    else:
        if len(ta.pi1_words) != 2 or len(tb.pi1_words) != 2:
            raise SurgeryError(
                "no certified fundamental-group route: need a simply connected "
                "complement flag, complement models, or torus directions on "
                "both sides"
            )
        pairs = [
            (a.pi1.word(ta.pi1_words[0]), b.pi1.word(tb.pi1_words[0])),
            (a.pi1.word(ta.pi1_words[1]), b.pi1.word(tb.pi1_words[1])),
        ]
        pi1 = svk_glue(a.pi1, b.pi1, pairs)
        pi1_route = "pushout of the closed groups (tracked model)"
        record_flags.add("pi1_model")
        offset = len(a.pi1.generators)
        remap_b_words = (b.pi1, offset, pi1.generators)

    euler = a.euler + b.euler
    b1 = pi1.abelianization()[0]
    if euler != 2 - 2 * b1 + n_new:
        raise SurgeryError(
            f"fiber-sum homology bookkeeping failed: basis rank {n_new} but "
            f"chi - 2 + 2*b1 = {euler - 2 + 2 * b1}; this gluing is outside "
            "the block rule"
        )

    def remap_word(text: str) -> str:
        if remap_b_words is None:
            return text
        source, offset, names = remap_b_words
        return word_to_text(shift_word(source.word(text), offset), names)

    # Seiberg-Witten element from the relative factors
    fa = a.rel_factor(torus_a) if torus_a in a.rel_tori else None
    fb = b.rel_factor(torus_b) if torus_b in b.rel_tori else None
    if fa is not None and fb is not None:
        for (exps, _coeff) in fb.terms:
            if exps[jb] != 0:
                raise SurgeryError(
                    "relative factor involves the glued dual class; unsupported"
                )
        sw = fa.substitute_hom(a_matrix) * fb.substitute_hom(b_matrix)
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
    pad = (0,) * len(leftover)
    marks = [
        _carry(
            old,
            lambda cls: cls + pad,
            pi1_words=glued_words,
            framing=f"glued[{ta.framing}|{tb.framing}]",
            flags=frozenset({"self_intersection_zero"}),
        )
        if old.label == torus_a
        else _carry(
            old, lambda cls: cls + pad, flags=old.flags - {"complement_simply_connected"}
        )
        for old in a.marks
    ]
    b_marks = [old for old in b.marks if old.label != torus_b]
    b_labels = fresh_names([old.label for old in a.marks], [old.label for old in b_marks])
    marks += [
        _carry(
            old,
            push_class,
            label=label,
            pi1_words=tuple(remap_word(w) for w in old.pi1_words),
            flags=old.flags - {"complement_simply_connected"},
        )
        for old, label in zip(b_marks, b_labels)
    ]
    rel_labels = {torus_a, *a.rel_tori}
    rel_labels.update(l for old, l in zip(b_marks, b_labels) if old.label in b.rel_tori)

    step = {
        "op": "fiber_sum",
        "torus": torus_a,
        "other_torus": torus_b,
        "other_trace": list(b.trace),
        "framing_pairing": list(framing_pairing) if framing_pairing else None,
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
        rel_tori=_rel_tori(sw, marks, rel_labels),
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
        # a glued copy of a surgered loop keeps its label (fiber_sum renames
        # only against live labels), and its belt would take the old one's
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

    marks = [
        _carry(old, lambda cls: cls + pad) for old in m.marks if old.label != loop_label
    ]
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
        if step.get("op") == "loop_surgery" and f"belt[{step['loop']}]" == sphere_label:
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
    and the Euler characteristic is unchanged.  Lemma-suite scaffolding:
    the result is rebuilt as a fresh record (no trace step), used only
    for invariant-level comparisons.
    """
    mark = m.mark(torus_label)
    if mark.kind != "torus":
        raise SurgeryError(f"{torus_label!r} is not a torus mark")
    if len(mark.pi1_words) != 2:
        raise SurgeryError(f"{torus_label!r} does not carry its two directions")
    idx = _basis_index_of_class(m, mark)
    removed = {idx, _hyperbolic_partner(m.form, idx)}
    keep = [i for i in range(m.form.n) if i not in removed]
    marks = tuple(
        _carry(old, lambda cls: tuple(cls[i] for i in keep))
        for old in m.marks
        if old.label != torus_label
        and not (old.homology_class and any(old.homology_class[i] for i in removed))
    )
    return ManifoldRecord(
        name=f"{m.name}_L0[{torus_label}]",
        pi1=m.pi1.quotient_by_normal_closure([m.pi1.word(mark.pi1_words[1])]),
        euler=m.euler,
        form=IntSymMatrix.from_rows([[m.form.entry(i, j) for j in keep] for i in keep]),
        basis=tuple(m.basis[i] for i in keep),
        sw=None,
        sw_reason="untracked (zero log transform)",
        marks=marks,
        flags=m.flags,
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

    def remap(text: str) -> str:
        return word_to_text(shift_word(b.pi1.word(text), offset), pi1.generators)

    b_labels = fresh_names([old.label for old in a.marks], [old.label for old in b.marks])
    marks = [_carry(old, lambda cls: cls + (0,) * b.form.n) for old in a.marks]
    marks += [
        _carry(
            old,
            lambda cls: (0,) * a.form.n + cls,
            label=label,
            pi1_words=tuple(remap(w) for w in old.pi1_words),
        )
        for old, label in zip(b.marks, b_labels)
    ]
    rel_labels = set(a.rel_tori)
    rel_labels.update(l for old, l in zip(b.marks, b_labels) if old.label in b.rel_tori)
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
        rel_tori=_rel_tori(sw, marks, rel_labels),
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
    if not steps or steps[0].get("op") != "base":
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


def _replay_step(record: ManifoldRecord | None, step: dict, memo: ReplayTrie) -> ManifoldRecord:
    """``record`` after one trace step; ``None`` stands before the base step."""
    if record is None:
        ctor = step.get("constructor")
        if ctor not in BASE_CONSTRUCTORS:
            raise ValueError(f"unknown base constructor {ctor!r}")
        return BASE_CONSTRUCTORS[ctor](step.get("args", {}))
    op = step.get("op")
    if op == "knot_surgery":
        knot = KnotRecord.from_braid(step["knot"]["name"], step["knot"]["braid"])
        return knot_surgery(record, step["torus"], knot)
    if op == "fiber_sum":
        other = build_from_trace(step["other_trace"], memo=memo)
        pairing = step.get("framing_pairing")
        return fiber_sum(
            record,
            step["torus"],
            other,
            step["other_torus"],
            None if pairing is None else (pairing[0], pairing[1]),
        )
    if op == "loop_surgery":
        return loop_surgery(
            record,
            step["loop"],
            word=step.get("word"),
            nullhomotopic=step.get("nullhomotopic", False),
        )
    if op == "connected_sum":
        return connected_sum(record, build_from_trace(step["other_trace"], memo=memo))
    if op == "note":
        return replace(record, trace=record.trace + (step,))
    raise ValueError(f"unknown trace op {op!r}")


# -- literature rewrite rules ----------------------------------------------------


def _find_knot_step(trace) -> tuple[int, ...] | None:
    """Path to the first knot_surgery step: top-level first, then embedded."""
    for i, step in enumerate(trace):
        if step.get("op") == "knot_surgery":
            return (i,)
    for i, step in enumerate(trace):
        sub = step.get("other_trace")
        if sub is not None:
            path = _find_knot_step(sub)
            if path is not None:
                return (i,) + path
    return None


def _is_s2xs2_trace(trace) -> bool:
    return (
        len(trace) == 1
        and trace[0].get("op") == "base"
        and trace[0].get("constructor") == "standard_block"
        and trace[0].get("args", {}).get("name") == "S2xS2"
    )


def _remove_at(trace, path):
    """``trace`` without the step at ``path``, and that step.  Only the steps
    that contain it are rebuilt; every other step object is shared."""
    steps = list(trace)
    if len(path) == 1:
        removed = steps.pop(path[0])
        return tuple(steps), removed
    head = path[0]
    sub, removed = _remove_at(steps[head]["other_trace"], path[1:])
    steps[head] = {**steps[head], "other_trace": list(sub)}
    return tuple(steps), removed


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
    path = _find_knot_step(m.trace)
    if path is None:
        for step in m.trace:
            if step.get("op") == "note" and step.get("event") == "dissolved_knot_surgery":
                return m
        raise SurgeryError("no knot surgery step in the trace; nothing to dissolve")
    container = path[0]
    stabilized = any(
        step.get("op") == "connected_sum" and _is_s2xs2_trace(step["other_trace"])
        for step in m.trace[container + 1 :]
    )
    if not stabilized:
        raise SurgeryError(
            "knot surgery present but no later S2xS2 stabilization; the "
            "dissolution rule does not apply"
        )
    new_trace, removed = _remove_at(m.trace, path)
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
    i = _basis_index_of_class(x, mark)
    j = _hyperbolic_partner(x.form, i)
    witness = find_nonspin_witness(
        x.form, unit_vector(x.form.n, i), unit_vector(x.form.n, j)
    )
    if witness is None:
        raise SurgeryError(
            "no non-spin witness in the torus complement and X is not "
            "certified spin"
        )
    return "nonspin-complement", f"witness basis combination {witness}"

"""Command-line front end.

Exit codes: 0 success, 1 error (bad input, usage errors included), 2
negative verdict (not the identity, membership refused, a check
failed), 3 internal error (a broken invariant of the library, not bad
input).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf

from . import action, arrangements, circle, group, sigma, topology, xcomplex
from .words import text_to_word


def _parse_word(text: str, tag: str) -> group.GroupWord:
    if tag == "auto":
        tag = group.infer_tag(text)
    return group.word(text, tag)


def _parse_forms(text: str):
    return [group.special_form(part.strip()) for part in text.split(";") if part.strip()]


def _parse_number(token: str, expected: str, kind=int):
    """The token read by kind (int or Fraction); a bad one raises a
    ValueError that names it after what was expected."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{expected}, not {token.strip()!r}") from None


def _parse_pieces(items, tag):
    pieces = []
    for item in items:
        base_text, _, forms_text = item.partition("|")
        base = group.word(base_text.strip() or "e", tag)
        pieces.append((base, _parse_forms(forms_text)))
    return pieces


def _emit(args, payload, text):
    if getattr(args, "json", False):
        payload = {"format": 1, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def cmd_normalize(args):
    w = _parse_word(args.word, args.tag)
    sf = group.rewrite_standard_form(w)
    out = sf.word().to_string()
    _emit(args, {"input": w.to_string(), "standard_form": out,
                 "head": sf.head.to_string(), "tail": list(sf.tail)}, out)
    return 0


def cmd_act(args):
    w = _parse_word(args.word, args.tag)
    res = action.act_prefix(w, text_to_word(args.input))
    _emit(args, {"forced": res.forced or "e", "exhausted": res.exhausted},
          res.forced or "e")
    return 0


def cmd_char(args):
    w = _parse_word(args.word, args.tag)
    v = group.char_value(args.name, w)
    _emit(args, {"character": args.name, "value": v}, str(v))
    return 0


def cmd_wordproblem(args):
    w = _parse_word(args.word, args.tag)
    verdict = group.word_problem(w, depth=args.depth)
    if verdict.result == "unknown":  # the reason, not a witness
        text = f"unknown ({verdict.witness})"
    else:
        text = verdict.result + (f" (witness {verdict.witness})" if verdict.witness else "")
    _emit(args, {"verdict": verdict.result, "witness": verdict.witness}, text)
    return 2 if verdict.result == "not-identity" else 0


def cmd_cluster(args):
    diagonals = {_parse_number(t, "diagonal index must be an int")
                 for t in args.diagonals.split(",") if t.strip()}
    arr = arrangements.Arrangement(args.n, diagonals)
    if args.dot:
        print(arrangements.skeleton_to_dot(arrangements.enumerate_cells(arr)))
    elif args.json:
        print(arrangements.complex_to_json(arrangements.enumerate_cells(arr)))
    else:
        print(" ".join(str(c) for c in arrangements.cell_counts(arr)))
    return 0


def cmd_xcluster(args):
    base = group.word(args.base or "e", args.tag)
    pc = xcomplex.build_x_cluster(base, _parse_forms(args.params))
    labels = {v: pc.labels[v] for v in pc.cluster.complex.cells_of_dim(0)}
    if args.dot:
        ranks = {v: group.psi_like_value(w) for v, w in pc.label_words.items()}
        print(arrangements.skeleton_to_dot(pc.cluster, labels, ranks))
        return 0
    if args.json:
        print(arrangements.complex_to_json(pc.cluster, labels))
        return 0
    print(f"diagonals {sorted(pc.diagonals)} counts {pc.cluster.counts()}")
    return 0


def cmd_asclink(args):
    cx = xcomplex.assemble(_parse_pieces(args.piece, args.tag))
    link = xcomplex.ascending_link(cx, args.vertex)
    hom, collapsible = topology.homology_and_collapsible(link)
    cells = {d: len(link.cells_of_dim(d)) for d in range(link.dimension() + 1)}
    payload = {"cells": cells, "reduced_homology": {str(k): v for k, v in hom.items()},
               "collapsible": collapsible}
    _emit(args, payload, f"cells {cells} homology {hom}")
    return 0


def cmd_cone(args):
    m, verified = xcomplex.find_cone_vertex(_parse_pieces(args.piece, args.tag))
    _emit(args, {"m": m, "verified": verified}, f"m={m} verified={verified}")
    return 0


def cmd_homology(args):
    cx = xcomplex.assemble(_parse_pieces(args.piece, args.tag))
    hom = topology.reduced_homology(cx.complex)
    _emit(args, {"reduced_homology": {str(k): v for k, v in hom.items()}}, str(hom))
    return 0


def cmd_phi(args):
    p = circle.TailPoint(text_to_word(args.prefix), args.tail)
    v = circle.phi(p)
    out = "inf" if v is None else (f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator))
    _emit(args, {"value": out}, out)
    return 0


def cmd_phiinv(args):
    if args.value == "inf":
        q = None
    else:
        q = _parse_number(args.value, "value must be a rational or 'inf'", Fraction)
    a, b = circle.phi_inverse(q)
    text = f"{a} {b}"
    _emit(args, {"preimages": [str(a), str(b)]}, text)
    return 0


def cmd_ins(args):
    w = _parse_word(args.word, "Shat")
    ok = circle.in_S(w)
    _emit(args, {"in_S": ok}, str(ok).lower())
    return 0 if ok else 2


def cmd_witness(args):
    w = _parse_word(args.word, "Shat")
    factors = circle.s_witness(w, args.family)
    texts = [f.to_string() for f in factors]
    _emit(args, {"family": args.family, "factors": texts}, "\n".join(texts))
    return 0


def cmd_relcheck(args):
    rels = circle.relator_schemas(args.maxlen, args.maxp)
    bad = []
    for r in rels:
        w = action.equal_at_depth(r, group.identity("Shat"), args.depth)
        if w is not None or group.char_value("psihat", r) != 0:
            bad.append((r.to_string(), w))
    _emit(args, {"instances": len(rels), "failures": bad},
          f"{len(rels)} relator instances, {len(bad)} failures")
    return 0 if not bad else 2


def cmd_classify(args):
    gens = []
    for part in args.gens.split(";"):
        if part.strip():
            gens.append(tuple(_parse_number(t, "generator entry must be an int")
                              for t in part.split(",")))
    result = sigma.classify_normal_subgroup(sigma.lattice(*gens), args.group)
    _emit(args, {"class": result}, result)
    return 0


def cmd_sigma(args):
    coords = tuple(_parse_number(t, "character coordinate must be a rational", Fraction)
                   for t in args.char.split(","))
    n = inf if args.n == "inf" else _parse_number(args.n, "index must be an int or 'inf'")
    ok = sigma.sigma_membership(args.group, coords, n)
    _emit(args, {"member": ok}, str(ok).lower())
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input exits 1; 2 is a negative verdict
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lmg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, tag=None, dot=False, **kwargs):
        """A subcommand; tag is the --tag default of those that read one,
        and dot adds --dot, which excludes --json."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        out = p.add_mutually_exclusive_group() if dot else p
        out.add_argument("--json", action="store_true")
        if dot:
            out.add_argument("--dot", action="store_true")
        if tag:
            shown = "inferred" if tag == "auto" else tag
            p.add_argument("--tag", default=tag, help=f"group tag (default: {shown})")
        return p

    p = add("normalize", cmd_normalize, "auto", help="standard form of a word")
    p.add_argument("word")

    p = add("act", cmd_act, "auto", help="forced output prefix on an input prefix")
    p.add_argument("word")
    p.add_argument("input")

    p = add("char", cmd_char, "auto", help="value of a character on a word")
    p.add_argument("--name", required=True,
                   choices=list(group.CHARACTERS) + ["psi-hat"])
    p.add_argument("word")

    p = add("wordproblem", cmd_wordproblem, "auto", help="triviality of a word")
    p.add_argument("word")
    p.add_argument("--depth", type=int, default=group.DEFAULT_DEPTH)

    p = add("cluster", cmd_cluster, dot=True, help="cells of an arrangement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--diagonals", default="")

    p = add("xcluster", cmd_xcluster, "G", dot=True, help="labeled cluster over a base coset")
    p.add_argument("--base", default="e")
    p.add_argument("--params", required=True, help="special forms separated by ';'")

    p = add("asclink", cmd_asclink, "G", help="ascending link of a vertex")
    p.add_argument("--piece", action="append", required=True,
                   help="piece as 'base|form;form;...'")
    p.add_argument("--vertex", default="e")

    p = add("cone", cmd_cone, "G", help="least verified cone parameter")
    p.add_argument("--piece", action="append", required=True)

    p = add("homology", cmd_homology, "G", help="reduced homology of an assembly")
    p.add_argument("--piece", action="append", required=True)

    p = add("phi", cmd_phi, help="circle coordinate of an eventually constant point")
    p.add_argument("prefix")
    p.add_argument("tail", choices=["0", "1"])

    p = add("phiinv", cmd_phiinv, help="the two preimages of a rational (or inf)")
    p.add_argument("value")

    p = add("ins", cmd_ins, help="membership in the simple group S")
    p.add_argument("word")

    p = add("witness", cmd_witness, help="S-membership factorization")
    p.add_argument("--family", required=True, choices=list(circle.FAMILIES))
    p.add_argument("word")

    p = add("relcheck", cmd_relcheck, help="verify the relator schemas")
    p.add_argument("--maxlen", type=int, default=2)
    p.add_argument("--maxp", type=int, default=2)
    p.add_argument("--depth", type=int, default=group.DEFAULT_DEPTH)

    p = add("classify", cmd_classify, help="finiteness class of a normal subgroup")
    p.add_argument("--group", default="G", choices=list(sigma.BASES))
    p.add_argument("--gens", required=True, help="triples like '1,0,0;0,1,1'")

    p = add("sigma", cmd_sigma, help="BNSR membership of a character class")
    p.add_argument("--group", default="G", choices=list(sigma.BASES))
    p.add_argument("--char", required=True, help="rational triple 'a,b,c'")
    p.add_argument("--n", default="1", help="index (integer or 'inf')")

    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "name", None) == "psi-hat":
        args.name = "psihat"
    try:
        return args.fn(args)
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()

"""Command line surface: every pipeline, machine-readable JSON out.

Exit codes: 0 for success (certificate granted, query answered), 2 for an
honest negative (not certified, cap exceeded, failed verification), 1 for
usage errors.  Each handler returns a document body and an exit code, and
:func:`main` adds the ``command`` and ``config`` keys to every body.
Documents are emitted with sorted keys and fixed indentation so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ENV_CONFIG_PATH, load_config
from .errors import BelowBoundError, CapExceeded, NotMaterializedError, check_int
from .largeness import (
    _spec_counts,
    certify_power_quotient,
    lemma_fi_bound,
    verify_certificate,
)
from .periodic import format_factors, run_construction, trace_to_jsonl
from .series import embed, unit_order
from .verbal import (
    LEVEL_RANK_TEXT,
    PrimeSeq,
    build_series,
    levi_bound,
    quotient_order_factors,
)
from .words import parse_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2 for
    honest negatives, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _split_csv(text):
    return [part for part in (p.strip() for p in text.split(",")) if part]


def _parse_words(text, rank):
    words = [parse_word(part, rank) for part in _split_csv(text)]
    if not words:
        raise ValueError("empty word list")
    return words


def _parse_primes(text):
    return PrimeSeq([int(p) for p in _split_csv(text)])


def _load_json(path, what):
    """The JSON document in a file; an unreadable file or invalid JSON is a
    usage error naming ``what`` the file should hold."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def _cmd_certify_large(args, cfg):
    words = _parse_words(args.words, args.rank)
    witness = None
    if args.witness:
        spec = _load_json(args.witness, "witness")
        if not (isinstance(spec, dict)
                and {"kind", "params", "gen_images"} <= spec.keys()):
            raise ValueError("witness must be a JSON object with kind, params "
                             "and gen_images")
        try:
            # counted by the route its spec picks, so a standard unit
            # witness is never enumerated; one past the cap is an error
            # here, not a verdict
            witness = _spec_counts(spec, cfg.enumeration_cap)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed witness: {exc!r}") from exc
    try:
        certificate = certify_power_quotient(
            words, args.exponent, witness=witness,
            enum_cap=cfg.enumeration_cap, truncation_cap=cfg.truncation_cap,
        )
    except (BelowBoundError, CapExceeded) as exc:
        return {"error": str(exc), "verdict": "not-certified"}, EXIT_NEGATIVE
    code = EXIT_OK if certificate["verdict"] == "certified-large" else EXIT_NEGATIVE
    return certificate, code


def _cmd_lemma_fi(args, cfg):
    words = _parse_words(args.words, args.rank)
    bound = lemma_fi_bound(
        words, args.m, truncation_cap=cfg.truncation_cap,
        enum_cap=cfg.enumeration_cap,
    )
    # M is the product of the p^{j(p)}
    return {**bound.to_doc(),
            "M": format_factors(bound.small_prime_exponents)}, EXIT_OK


def _cmd_magnus(args, cfg):
    word = parse_word(args.word, args.rank)
    modulus = args.prime if args.prime else None
    image = embed(word, args.truncation, modulus)
    doc = {
        "word": str(word),
        "rank": args.rank,
        "modulus": modulus,
        "truncation": args.truncation,
        "image": str(image),
        "is_one": image.is_one,
    }
    if modulus is not None:
        doc["unit_order"] = unit_order(image)
    return doc, EXIT_OK


def _cmd_gamma(args, cfg):
    primes = _parse_primes(args.primes)
    if args.depth < 0 or args.depth > len(primes):
        raise ValueError(
            f"depth must be between 0 and {len(primes)}, got {args.depth}"
        )
    doc = {
        "primes": list(primes.primes),
        "rank": args.rank,
        "depth": args.depth,
        "quotient_order": format_factors(
            quotient_order_factors(primes, args.rank, args.depth)
        ),
    }
    if args.member is None and args.order is None:
        return doc, EXIT_OK
    try:
        levels = build_series(primes, args.rank, args.depth, coset_cap=cfg.coset_cap)
        if args.member is not None:
            word = parse_word(args.member, args.rank)
            result = True if args.depth == 0 else levels[-1].member(word)
            doc["member"] = {"word": str(word), "result": result}
        else:
            word = parse_word(args.order, args.rank)
            order = 1 if args.depth == 0 else levels[-1].order_mod(word)
            doc["element_order"] = {"word": str(word), "order": order}
    except (CapExceeded, NotMaterializedError) as exc:
        doc["error"] = str(exc)
        return doc, EXIT_NEGATIVE
    return doc, EXIT_OK


def _cmd_levi(args, cfg):
    words = _parse_words(args.set, args.rank)
    primes = _parse_primes(args.primes)
    doc = {
        "set": [str(w) for w in words],
        "primes": list(primes.primes),
    }
    try:
        doc["bound"] = levi_bound(
            words, primes, depth_cap=cfg.depth_cap, coset_cap=cfg.coset_cap
        )
    except CapExceeded as exc:
        doc["error"] = str(exc)
        return doc, EXIT_NEGATIVE
    return doc, EXIT_OK


def _cmd_construct_periodic(args, cfg):
    primes = _parse_primes(args.primes)
    trace = run_construction(
        primes, args.steps, rank=args.rank,
        coset_cap=cfg.coset_cap, depth_cap=cfg.depth_cap,
    )
    return trace, EXIT_NEGATIVE if trace["halted"] else EXIT_OK


def _cmd_verify(args, cfg):
    certificate = _load_json(args.certificate, "certificate")
    try:
        report = verify_certificate(certificate, enum_cap=cfg.enumeration_cap)
    except (KeyError, TypeError, ValueError, CapExceeded,
            NotMaterializedError) as exc:
        # a witness that cannot be rebuilt; target-side faults are problems
        body = {"ok": False, "error": f"malformed certificate: {exc!r}"}
        return body, EXIT_NEGATIVE
    return report, EXIT_OK if report["ok"] else EXIT_NEGATIVE


def _add_common(subparser):
    subparser.add_argument(
        "--config", metavar="PATH", default=None,
        help=f"key=value settings file (default: ${ENV_CONFIG_PATH})",
    )
    subparser.add_argument(
        "--output", "-o", metavar="PATH", default=None,
        help="write the JSON document here instead of stdout",
    )


def build_parser():
    parser = _Parser(
        prog="largequot",
        description="Largeness certificates and periodic quotients of free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "certify-large",
        help="certify F/<<g_1^q,..,g_k^q>> large via an avoiding quotient",
    )
    p.add_argument("-r", "--rank", type=int, default=2)
    p.add_argument("-g", "--words", required=True,
                   help="comma-separated base words, e.g. 'a,bab'")
    p.add_argument("-q", "--exponent", type=int, required=True)
    p.add_argument("--witness", metavar="FILE",
                   help="JSON quotient spec to use instead of searching")
    _add_common(p)
    p.set_defaults(handler=_cmd_certify_large)

    p = sub.add_parser(
        "lemma-fi",
        help="avoidance bound M for a word set",
    )
    p.add_argument("-r", "--rank", type=int, default=2)
    p.add_argument("-g", "--words", required=True)
    p.add_argument("-m", type=int, required=True,
                   help="protect g^s for all s <= m")
    _add_common(p)
    p.set_defaults(handler=_cmd_lemma_fi)

    p = sub.add_parser(
        "magnus",
        help="truncated series image of a word under a_i -> 1+x_i",
    )
    p.add_argument("-r", "--rank", type=int, default=2)
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-p", "--prime", type=int, default=0,
                   help="coefficient prime; 0 for integer coefficients")
    p.add_argument("-l", "--truncation", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_magnus)

    p = sub.add_parser(
        "gamma",
        help="iterated verbal quotient F/gamma_d: order, membership",
    )
    p.add_argument("--primes", required=True, help="e.g. '2,3'")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--member", metavar="WORD")
    group.add_argument("--order", metavar="WORD")
    _add_common(p)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser(
        "levi",
        help="least depth whose verbal level avoids a finite word set",
    )
    p.add_argument("--set", required=True, help="comma-separated words")
    p.add_argument("--primes", required=True)
    p.add_argument("-r", "--rank", type=int, default=2)
    _add_common(p)
    p.set_defaults(handler=_cmd_levi)

    p = sub.add_parser(
        "construct-periodic",
        help="run the iterative periodic-quotient driver",
    )
    p.add_argument("--primes", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--jsonl", action="store_true",
                   help="emit one JSON line per construction state")
    _add_common(p)
    p.set_defaults(handler=_cmd_construct_periodic)

    p = sub.add_parser(
        "verify",
        help="recompute a certificate from its witness and compare",
    )
    p.add_argument("certificate", metavar="CERT.json")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(doc, args):
    if getattr(args, "jsonl", False) and "states" in doc:
        text = trace_to_jsonl(doc) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        parser.error(f"cannot read config: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    try:
        # every subcommand but verify takes a rank, checked before the
        # handler reads anything else
        if "rank" in vars(args):
            check_int(args.rank, LEVEL_RANK_TEXT, 1)
        body, code = args.handler(args, cfg)
    except ValueError as exc:
        parser.error(str(exc))
    except (CapExceeded, BelowBoundError, NotMaterializedError) as exc:
        body, code = {"error": str(exc)}, EXIT_NEGATIVE
    # every document, answer or honest negative, carries one envelope
    _emit({"command": args.command, "config": cfg.to_doc(), **body}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())

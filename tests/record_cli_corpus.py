"""The frozen CLI corpus: its entries, how one runs, and how they are recorded.

Each entry of ``tests/cli_corpus/`` is one JSON file holding an ``argv``,
an optional ``config`` text (written to ``config.txt`` and named by the
``LARGEQUOT_CONFIG`` environment variable), the input ``files`` the argv
reads, and what the command gave when the entry was recorded: ``stdout``,
``stderr``, ``exit`` and the ``outputs`` it wrote (files that were not
inputs).  ``tests/test_cli_corpus.py`` runs every entry and compares all
of it byte for byte.

    python tests/record_cli_corpus.py            # report entries that differ
    python tests/record_cli_corpus.py --write    # rewrite every entry
    python tests/record_cli_corpus.py --write certify_default verify_ok

Without ``--write`` nothing is written.  An entry that moves is a changed
CLI document, error text or exit code, and the change that moves it says so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus")
CONFIG_FILE = "config.txt"
# argparse wraps its usage text at the terminal width, read from COLUMNS
ENV = {"COLUMNS": "80"}


def _unit_spec(modulus, rank, degree_bound, images, **extra):
    return {"kind": "magnus_unit",
            "params": {"modulus": modulus, "rank": rank,
                       "degree_bound": degree_bound, **extra},
            "gen_images": images}


def _verbal_spec():
    from largequot.verbal import build_series
    return build_series((2, 3, 5), 2, 3)[2].parent_quotient.serialize()


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _doctored(cert_text, edit):
    doc = json.loads(cert_text)
    edit(doc)
    return _json(doc)


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def _entries():
    """name -> (argv, config text or None, {file name: text} or a callable
    of the recorded entries giving it)."""
    witness = ["certify-large", "-g", "a", "-q"]
    standard = _unit_spec(3, 2, 2, ["1 + x1", "1 + x2"])
    entries = {
        # certify-large
        "certify_default": (["certify-large", "-r", "2", "-g", "a", "-q", "2"],
                            None, {}),
        "certify_two_words": (["certify-large", "-g", "a,b", "-q", "288"],
                              None, {}),
        "certify_rank_one": (["certify-large", "-r", "1", "-g", "aa", "-q", "8"],
                             None, {}),
        "certify_below_bound": (["certify-large", "-g", "a,b", "-q", "2"],
                                None, {}),
        "certify_direct_search": (["certify-large", "-g", "a,ab", "-q", "7"],
                                  None, {}),
        "certify_enumeration_cap": (["certify-large", "-g", "a", "-q", "5"],
                                    "enumeration_cap = 10\n", {}),
        "certify_truncation_cap": (["certify-large", "-g", "abAB", "-q", "4"],
                                   "truncation_cap = 2\n", {}),
        "certify_avoiding_cap": (["certify-large", "-g", "abAB", "-q", "1000"],
                                 "enumeration_cap = 100\n", {}),
        "certify_output_file": (["certify-large", "-g", "a", "-q", "4",
                                 "-o", "cert.json"], None, {}),
        "certify_config_flag": (["certify-large", "-g", "a", "-q", "4",
                                 "--config", "caps.txt"], None,
                                {"caps.txt": "# caps\nenumeration_cap = 50\n"}),
        # valuations past degree 1: v_3(abAB) = 2, v_2(aa) = 2 (the mod-2
        # search starts at truncation 3), and the large-prime branch
        "certify_commutator_mod3": (["certify-large", "-g", "abAB", "-q",
                                     "864"], None, {}),
        "certify_square_mod2": (["certify-large", "-g", "aa", "-q", "16"],
                                None, {}),
        "certify_commutator_large_prime": (["certify-large", "-g", "abAB",
                                            "-q", "865"], None, {}),
        # certify-large --witness, one file per witness kind
        "witness_unit_standard": (witness + ["3", "--witness", "w.json"], None,
                                  {"w.json": _json(standard)}),
        "witness_unit_invertible": (
            witness + ["9", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(3, 2, 3, ["1 + x1 + x2", "1 + 2*x2"]))}),
        "witness_unit_singular": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(3, 2, 2, ["1 + x1 + x2", "1 + x1 + x2"]))}),
        "witness_unit_mod4": (
            witness + ["4", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(4, 2, 2, ["1 + x1", "1 + x2"]))}),
        "witness_unit_mod6_over_cap": (
            witness + ["6", "--witness", "w.json"], "enumeration_cap = 30\n",
            {"w.json": _json(_unit_spec(6, 2, 3, ["1 + x1", "1 + x2"]))}),
        "witness_unit_integer": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(None, 2, 2, ["1 + x1", "1 + x2"]))}),
        # trivial over Z: the packed action declines it, so the BFS takes
        # the series product `*`
        "witness_unit_integer_trivial": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(None, 2, 2, ["1", "1"]))}),
        "witness_unit_extra_param": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(3, 2, 2, ["x1 + 1", "x2+1"],
                                        note="kept"))}),
        "witness_unit_bool_rank": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(3, True, 2, ["1 + x1"]))}),
        "witness_unit_empty_images": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json(_unit_spec(3, 2, 2, []))}),
        "witness_modvec": (
            witness + ["5", "--witness", "w.json"], None,
            {"w.json": _json({"kind": "modvec",
                              "params": {"modulus": 5, "dim": 2},
                              "gen_images": [[1, 0], [0, 1]]})}),
        "witness_modvec_empty_images": (
            witness + ["5", "--witness", "w.json"], None,
            {"w.json": _json({"kind": "modvec",
                              "params": {"modulus": 5, "dim": 2},
                              "gen_images": []})}),
        "witness_verbal": (witness + ["6", "--witness", "w.json"], None,
                           {"w.json": _json(_verbal_spec())}),
        "witness_unknown_kind": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": _json({"kind": "braid", "params": {},
                              "gen_images": ["a"]})}),
        "witness_no_modulus": (
            witness + ["3", "--witness", "w.json"], None,
            {"w.json": '{"kind": "modvec", "params": {}, "gen_images": [[1]]}'}),
        "witness_not_json": (witness + ["3", "--witness", "w.json"], None,
                             {"w.json": "{not json"}),
        "witness_not_an_object": (witness + ["3", "--witness", "w.json"], None,
                                  {"w.json": "[1]"}),
        "witness_missing_file": (witness + ["3", "--witness", "missing.json"],
                                 None, {}),
        # lemma-fi
        "lemma_fi": (["lemma-fi", "-g", "a,bab", "-m", "2"], None, {}),
        "lemma_fi_rank_one": (["lemma-fi", "-r", "1", "-g", "a", "-m", "3"],
                              None, {}),
        "lemma_fi_commutator": (["lemma-fi", "-g", "abAB", "-m", "1"], None,
                                {}),
        "lemma_fi_truncation_cap": (["lemma-fi", "-g", "abAB", "-m", "2"],
                                    "truncation_cap = 2\n", {}),
        # magnus
        "magnus_mod_p": (["magnus", "-w", "ABab", "-p", "2", "-l", "3"],
                         None, {}),
        "magnus_integer": (["magnus", "-w", "aB", "-l", "4"], None, {}),
        "magnus_bad_word": (["magnus", "-w", "a%", "-l", "3"], None, {}),
        # the indexed form past rank 26, with a cancelling pair
        "magnus_indexed_rank_27": (["magnus", "-r", "27", "-w",
                                    "g27^2*g1*g1^-1*g3^-1", "-l", "3"],
                                   None, {}),
        # the identity's image is 1, of unit order 1
        "magnus_identity_mod_p": (["magnus", "-r", "2", "-w", "1", "-l", "3",
                                   "-p", "5"], None, {}),
        # gamma
        "gamma_order": (["gamma", "--primes", "2,3", "--rank", "2", "--depth",
                         "2", "--order", "a"], None, {}),
        "gamma_member": (["gamma", "--primes", "2,3", "--rank", "2", "--depth",
                          "2", "--member", "abAB"], None, {}),
        # a prime past trial division is tested by Miller-Rabin
        "gamma_large_prime": (["gamma", "--primes", "1000003", "--rank", "1",
                               "--depth", "1", "--order", "a"], None, {}),
        "gamma_member_identity": (["gamma", "--primes", "2,3", "--rank", "2",
                                   "--depth", "2", "--member", "1"], None, {}),
        "gamma_plain_order": (["gamma", "--primes", "3,3,7", "--rank", "2",
                               "--depth", "3"], None, {}),
        "gamma_depth_zero": (["gamma", "--primes", "2", "--rank", "2",
                              "--depth", "0", "--member", "a"], None, {}),
        "gamma_coset_cap": (["gamma", "--primes", "2,3", "--rank", "2",
                             "--depth", "2", "--order", "a"],
                            "coset_cap = 3\n", {}),
        "gamma_depth_out_of_range": (["gamma", "--primes", "2,3", "--rank",
                                      "2", "--depth", "3"], None, {}),
        "gamma_exponent_tower": (["gamma", "--primes", "2", "--rank",
                                  str(10**18), "--depth", "1", "--member",
                                  "a"], None, {}),
        "gamma_depth_three_order": (["gamma", "--primes", "3,2,5", "--rank",
                                     "2", "--depth", "3", "--order", "abAAB"],
                                    None, {}),
        "gamma_depth_three_member": (["gamma", "--primes", "3,2,5", "--rank",
                                      "2", "--depth", "3", "--member",
                                      "abAAB"], None, {}),
        # a commutator's exponent sums vanish, so its order needs the walk
        "gamma_depth_three_order_commutator": (
            ["gamma", "--primes", "3,2,5", "--rank", "2", "--depth", "3",
             "--order", "abAB"], None, {}),
        "gamma_depth_three_member_commutator": (
            ["gamma", "--primes", "3,2,5", "--rank", "2", "--depth", "3",
             "--member", "abAB"], None, {}),
        # |F/gamma_2| = 12500 is past the cap: refused, although the exponent
        # sums of a alone would give its order
        "gamma_depth_three_over_cap": (
            ["gamma", "--primes", "2,5,3", "--rank", "2", "--depth", "3",
             "--order", "a"], None, {}),
        # levi
        "levi": (["levi", "--set", "aa,ab", "--primes", "2,3"], None, {}),
        "levi_depth_cap": (["levi", "--set", "aa,ab", "--primes", "2,3"],
                           "depth_cap = 1\n", {}),
        # a^6 lies in gamma_2 over (2, 3): the primes run out before the
        # scan escapes, and the refusal spells the text it was handed
        "levi_primes_exhausted": (["levi", "--set", "a^6", "--primes", "2,3"],
                                  None, {}),
        # construct-periodic
        "construct_periodic": (["construct-periodic", "--primes", "2,3",
                                "--steps", "1"], None, {}),
        "construct_periodic_jsonl": (["construct-periodic", "--primes", "2,3",
                                      "--steps", "1", "--jsonl"], None, {}),
        "construct_periodic_rank_one": (["construct-periodic", "--primes",
                                         "2,3,5", "--steps", "2", "--rank",
                                         "1"], None, {}),
        "construct_periodic_rank_one_deep": (["construct-periodic", "--primes",
                                              "2,3,5,7,11,13", "--steps", "4",
                                              "--rank", "1"], None, {}),
        # the second step of a multi-step run reads the levels the first
        # one pulled, and halts at the materialization cap
        "construct_periodic_rank_two_halt": (["construct-periodic", "--primes",
                                              "2,3,5,7", "--steps", "2"],
                                             None, {}),
        "construct_periodic_rank_three": (["construct-periodic", "--primes",
                                           "2,3,5,7", "--steps", "2",
                                           "--rank", "3"], None, {}),
        # the third step's (aa)^210 lies in gamma_5 over a last prime 2: the
        # primes run out before the scan escapes
        "construct_periodic_primes_exhausted": (["construct-periodic",
                                                 "--primes", "2,3,5,7,2",
                                                 "--steps", "3", "--rank",
                                                 "1"], None, {}),
        # usage errors
        "usage_missing_arguments": (["certify-large", "-g", "a"], None, {}),
        "usage_not_an_int": (["certify-large", "-g", "a", "-q", "x"], None, {}),
        "usage_empty_words": (["certify-large", "-g", ",", "-q", "2"], None, {}),
        "usage_rank_zero": (["lemma-fi", "-r", "0", "-g", "a", "-m", "2"],
                            None, {}),
        "usage_bad_config_key": (["magnus", "-w", "a", "-l", "2"],
                                 "colour = blue\n", {}),
        "usage_bad_config_value": (["magnus", "-w", "a", "-l", "2"],
                                   "coset_cap = 0\n", {}),
        "usage_missing_config": (["magnus", "-w", "a", "-l", "2", "--config",
                                  "absent.txt"], None, {}),
        "usage_no_command": ([], None, {}),
    }
    # verify: each certificate is the stdout of a certify entry, as recorded
    verified = {
        "verify_ok": ("certify_two_words", None),
        "verify_rank_one": ("certify_rank_one", None),
        "verify_commutator_mod3": ("certify_commutator_mod3", None),
        "verify_unit_standard": ("witness_unit_standard", None),
        "verify_unit_invertible": ("witness_unit_invertible", None),
        "verify_unit_singular": ("witness_unit_singular", None),
        "verify_unit_mod4": ("witness_unit_mod4", None),
        "verify_unit_extra_param": ("witness_unit_extra_param", None),
        "verify_modvec": ("witness_modvec", None),
        "verify_verbal": ("witness_verbal", None),
        "verify_tampered_counts": ("certify_default",
                                   _set(("counts", "rels"), 1)),
        "verify_tampered_verdict": ("certify_default",
                                    _set(("verdict",), "not-certified")),
        "verify_wrong_schema": ("certify_default",
                                _set(("schema",), "largeness-certificate/0")),
        "verify_rank_mismatch": ("certify_default", _set(("target", "rank"), 3)),
        "verify_bool_rank": ("certify_default", _set(("target", "rank"), True)),
        "verify_bad_base_word": ("certify_default",
                                 _set(("target", "base_words"), ["a%"])),
        "verify_bad_exponent": ("certify_default",
                                _set(("target", "exponent"), 0)),
        "verify_counts_not_ints": ("certify_default",
                                   _set(("counts",), {"j": "4", "gens": 5})),
        "verify_over_cap": ("certify_default",
                            _set(("witness", "params", "degree_bound"), 10**6)),
        "verify_modvec_bool_modulus": ("witness_modvec",
                                       _set(("witness", "params", "modulus"),
                                            True)),
        "verify_verbal_depth_zero": ("witness_verbal",
                                     _set(("witness", "params", "depth"), 0)),
        "verify_no_witness": ("certify_default", lambda doc: doc.pop("witness")),
    }
    for name, (source, edit) in verified.items():
        def files(recorded, source=source, edit=edit):
            text = recorded[source]["stdout"]
            return {"cert.json": text if edit is None else _doctored(text, edit)}
        entries[name] = (["verify", "cert.json"], None, files)
    entries["verify_not_json"] = (["verify", "cert.json"], None,
                                  {"cert.json": "not json"})
    entries["verify_missing_file"] = (["verify", "absent.json"], None, {})
    return entries


@contextlib.contextmanager
def _environment(config):
    """ENV set, LARGEQUOT_CONFIG naming the config file or unset."""
    from largequot.config import ENV_CONFIG_PATH
    saved = {key: os.environ.get(key) for key in (*ENV, ENV_CONFIG_PATH)}
    os.environ.update(ENV)
    os.environ.pop(ENV_CONFIG_PATH, None)
    if config is not None:
        os.environ[ENV_CONFIG_PATH] = CONFIG_FILE
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _write_inputs(entry, directory):
    files = dict(entry["files"])
    if entry.get("config") is not None:
        files[CONFIG_FILE] = entry["config"]
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return files


def _outputs(directory, inputs):
    found = {}
    for name in sorted(os.listdir(directory)):
        if name not in inputs:
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                found[name] = handle.read()
    return found


def run_entry(entry):
    """What the entry's command gives in this process, through ``cli.main``:
    ``{"stdout", "stderr", "exit", "outputs"}``."""
    from largequot.cli import main
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        inputs = _write_inputs(entry, directory)
        os.chdir(directory)
        try:
            with _environment(entry.get("config")), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(list(entry["argv"]))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        outputs = _outputs(directory, inputs)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code,
            "outputs": outputs}


def entry_path(name):
    return os.path.join(CORPUS, name + ".json")


def load_corpus():
    """name -> entry, for every recorded entry."""
    corpus = {}
    for file_name in sorted(os.listdir(CORPUS)):
        if file_name.endswith(".json"):
            with open(os.path.join(CORPUS, file_name), encoding="utf-8") as handle:
                corpus[file_name[:-5]] = json.load(handle)
    return corpus


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the named entries, or every entry")
    parser.add_argument("names", nargs="*", help="entries to record")
    args = parser.parse_args(argv)
    entries = _entries()
    unknown = [name for name in args.names if name not in entries]
    if unknown:
        parser.error(f"no such entries: {', '.join(unknown)}")
    names = args.names or list(entries)
    # an entry may read a recorded one, so those are recorded first
    recorded = load_corpus() if os.path.isdir(CORPUS) else {}
    differ = []
    for name in sorted(names, key=lambda n: callable(entries[n][2])):
        argv, config, files = entries[name]
        entry = {"argv": argv, "config": config,
                 "files": files(recorded) if callable(files) else files}
        entry.update(run_entry(entry))
        if recorded.get(name) != entry:
            differ.append(name)
            if args.write:
                os.makedirs(CORPUS, exist_ok=True)
                with open(entry_path(name), "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, indent=1, sort_keys=True)
                    handle.write("\n")
        recorded[name] = entry
    verb = "rewritten" if args.write else "differ"
    print(f"{len(differ)} of {len(names)} entries {verb}: {' '.join(differ)}")
    return 1 if differ and not args.write else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())

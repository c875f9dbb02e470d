"""Every report stays identical, apart from telemetry.

The test writes a fixed set of problem files, runs `brimlab.cli.main` on
each in process and compares the sha256 of every output with
tests/outputs.json.  An output is the exit code, stdout with its
telemetry masked, and stderr.  The files and commands:

- E1-E6, 12 seeded files of infinite colength and 24 seeded parameter
  modules: `analyze --format json` and `verify`;
- E1-E6 also: `analyze` as text and as csv, and `spread --samples 3
  --seed 1` as text and as json;
- `dsl.parse` on 2,000 seeded mutations of those texts, one digest per
  100 mutations.

After a deliberate change of output, rewrite the data file with

    PYTHONPATH=src python tests/test_outputs.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import re
import tempfile

import pytest

from brimlab.cli import main
from brimlab.corpus import ENTRIES
from brimlab.dsl import ParseError, parse, spec_of
from brimlab.koszul import ModuleMatrix
from brimlab.multiplicity import random_parameter_matrix
from brimlab.poly import INFINITE, PolyContext, Polynomial
from brimlab.rings import make_ring, submodule_colength

DATA = pathlib.Path(__file__).with_name("outputs.json")

EVERY_FILE = (("analyze", "--format", "json"), ("verify",))
CORPUS_ONLY = (("analyze", "--format", "text"), ("analyze", "--format", "csv"),
               ("spread", "--samples", "3", "--seed", "1"),
               ("spread", "--samples", "3", "--seed", "1", "--format", "json"))
MUTATIONS, PER_DIGEST = 2000, 100


# name -> (variables, ideal generators as {exponents: coefficient})
RINGS = {"P2": ("xy", ()), "P3": ("xyz", ()), "P4": ("xyzw", ()),
         "cone": ("xyz", ({(1, 1, 0): 1, (0, 0, 2): 100},)),  # x*y - z^2
         "ncm": ("xyz", ({(2, 0, 0): 1}, {(1, 1, 0): 1}))}      # x^2, x*y: not Cohen-Macaulay


def _ring(name):
    names, ideal = RINGS[name]
    ctx = PolyContext(101, list(names))
    return make_ring(101, list(names), [Polynomial.from_terms(ctx, list(g.items())) for g in ideal])


def infinite_files():
    """12 seeded files of infinite colength, where the annihilation check
    tests whole minors: 1 x 4 and 2 x 4 linear matrices over P3, P4 and
    the cone, entries free of one variable."""
    rng = random.Random(26)
    files = []
    for name, free in (("P3", 2), ("P4", 3), ("cone", 0)):  # free: the variable no entry has
        ring = _ring(name)
        m = ring.ctx.nvars
        linear = [tuple(int(i == v) for i in range(m)) for v in range(m) if v != free]
        for i in range(4):
            while True:
                rows = [[ring.element(sum((ring.ctx.monomial(e, rng.randrange(101)) for e in linear), ring.ctx.zero()))
                         for _ in range(4)] for _ in range(1 + i % 2)]
                if any(e.is_zero() for row in rows for e in row):
                    continue
                mat = ModuleMatrix(ring, rows)
                if submodule_colength(ring, mat.submodule()) is INFINITE:
                    break
            files.append(("%s-%d" % (name, i), spec_of(ring, mat).serialize()))
    return files


def parameter_files():
    """24 seeded parameter modules with linear entries: three each over
    P2, P3, the cone and ncm, at rank 1 and 2."""
    rng = random.Random(1)
    return [("%s-r%d-%d" % (name, r, i), spec_of(ring, random_parameter_matrix(ring, r, rng)).serialize())
            for name in ("P2", "P3", "cone", "ncm") for ring in (_ring(name),)
            for r in (1, 2) for i in range(3)]


def problem_files():
    return [(e.name, e.text) for e in ENTRIES] + infinite_files() + parameter_files()


def _drop_json_telemetry(out):
    doc = json.loads(out)
    doc.pop("telemetry")
    return json.dumps(doc, indent=2)


# analyze's telemetry: elapsed time and S-pairs, which move whenever the engine reduces fewer pairs
MASKS = {
    ("analyze", "--format", "json"): _drop_json_telemetry,
    ("analyze", "--format", "text"): lambda out: re.sub(r"(?m)^(telemetry +)\d+ ms, \d+ pairs",
                                                        r"\1_ ms, _ pairs", out),
    ("analyze", "--format", "csv"): lambda out: re.sub(r",\d+,\d+$", ",_,_", out.rstrip("\n")) + "\n",
}


def run_cli(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    text = out.getvalue()
    if code == 0 and command in MASKS:
        text = MASKS[command](text)
    return "exit %d\n%s--- stderr\n%s" % (code, text, err.getvalue())


def parse_mutations(texts):
    """The spec, or the ParseError's reason, line and column, of each of
    MUTATIONS texts with one to three characters deleted, inserted or
    replaced; in chunks of PER_DIGEST."""
    alphabet = list("xyz_0129 \t\r\n#{}[]=,+-*^()$") + ["\u00e9", "\u00b2", "\u0660", "\u00a0"]
    rng = random.Random(1)
    lines = []
    for n in range(MUTATIONS):
        t = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i, c = rng.randrange(len(t) + 1), rng.choice(alphabet)
            t = rng.choice((t[:i] + t[i + 1:], t[:i] + c + t[i:], t[:i] + c + t[i + 1:]))
        try:
            out = repr(parse(t))
        except ParseError as e:
            out = repr((e.reason, e.line, e.col))
        except Exception as e:  # a budget error, or a fault the digest will show
            out = "%s: %s" % (type(e).__name__, e)
        lines.append("%d %s\n" % (n, out))
    return {"dsl.parse mutations %d-%d" % (k, k + PER_DIGEST - 1): "".join(lines[k:k + PER_DIGEST])
            for k in range(0, MUTATIONS, PER_DIGEST)}


def collect(directory):
    """key -> output of every command on every problem file, and of the parse mutations."""
    outputs = {}
    files = problem_files()
    corpus = {e.name for e in ENTRIES}
    for name, text in files:
        path = pathlib.Path(directory, name + ".brim")
        path.write_text(text, encoding="utf-8")
        for command in EVERY_FILE + (CORPUS_ONLY if name in corpus else ()):
            outputs["%s: %s" % (name, " ".join(command))] = run_cli(command, path)
    outputs.update(parse_mutations([text for _, text in files]))
    return outputs


def digest(output):
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def test_every_output_is_unchanged(tmp_path):
    outputs = collect(tmp_path)
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    report = ["%s changed; it now starts:\n%s" % (k, v[:800]) for k, v in outputs.items()
              if expected.get(k) != digest(v)]
    report += ["%s is no longer produced" % k for k in expected if k not in outputs]
    if report:  # pytest.fail: an assert's message is cut to a few lines
        pytest.fail("%d of %d outputs differ from %s:\n\n%s" % (len(report), len(expected), DATA.name,
                                                                 "\n\n".join(report)), pytrace=False)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        digests = {k: digest(v) for k, v in collect(d).items()}
    DATA.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print("wrote %d digests to %s" % (len(digests), DATA))

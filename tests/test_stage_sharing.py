"""One differential and one discriminant per analyze job.

``analyze`` runs the closedness, split, classify and product-form pipeline
stages on one job.  Each stage must report exactly what the matching
standalone command reports, while the job evaluates its coefficient triple
once and each ``SymTwoDiff`` computes its discriminant once.
"""

import json

import pytest

from symdiff2 import differentials
from symdiff2.cli import run
from symdiff2.expressions import DifferentialInput

README_W = {"scale": "exp(z2/(1+z1*z2))", "u": "z1", "r": "z1*(1+z1*z2)"}
DOCS = {
    "readme": {"truncation": 12, "backend": "exact", "w": README_W, "components": ["z1"]},
    "coefficients": {"truncation": 10, "backend": "exact",
                     "w": {"a": "exp(z2)", "b": "z1*z2*exp(z1)", "c": "0"},
                     "components": ["z1", "z2"]},
    # the README differential times exp(z2/2): not closed, nonzero residual
    "twin": {"truncation": 12, "backend": "exact",
             "w": {**README_W, "scale": "exp(z2/(1+z1*z2))*exp(z2/2)"},
             "components": ["z1"]},
}
# standalone command -> the name analyze gives that stage's failure
STAGES = (("closedness", "closedness"), ("split", "split"),
          ("classify", "classify"), ("theorem26", "pipeline"))


def invoke(command, doc):
    code, text = run([command], json.dumps(doc))
    return code, json.loads(text)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_analyze_stages_match_standalone_commands(name):
    doc = DOCS[name]
    _, together = invoke("analyze", doc)
    together = together["results"]
    compared = set()
    for command, stage in STAGES:
        if command == "theorem26" and "scale" not in doc["w"]:
            continue
        _, alone = invoke(command, doc)
        if "error" in alone:
            assert together[f"{stage}_error"] == alone["error"], command
        for key, value in alone["results"].items():
            assert together[key] == value, (command, key)
            compared.add(key)
    assert {"closedness", "split", "classify", "core_discriminant"} <= compared
    if "scale" in doc["w"]:
        assert {"decomposition", "normal_form"} <= compared


@pytest.mark.parametrize("name", sorted(DOCS))
def test_analyze_evaluates_once(name, monkeypatch):
    triples = []
    discs = []
    coefficient_triple = DifferentialInput.coefficient_triple
    discriminant = differentials.discriminant

    def counted_triple(self, *args, **kwargs):
        triples.append(self)
        return coefficient_triple(self, *args, **kwargs)

    def counted_discriminant(w):
        discs.append(w)  # holding w keeps its id unique for the whole job
        return discriminant(w)

    monkeypatch.setattr(DifferentialInput, "coefficient_triple", counted_triple)
    monkeypatch.setattr(differentials, "discriminant", counted_discriminant)
    invoke("analyze", DOCS[name])
    assert len(triples) == 1
    assert discs
    assert len({id(w) for w in discs}) == len(discs)


# closedness expands its numerator around w.disc, and split strips axis
# content from w.disc instead of building the stripped differential's own
SINGLE_STAGE = {
    "closedness": {"truncation": 10, "backend": "exact",
                   "w": {"a": "exp(z2)", "b": "z1*z2*exp(z1)", "c": "1+z1^2"}},
    "split": {"truncation": 12, "backend": "exact",
              "w": {"a": "z1^2*exp(z2)", "b": "z1^2*z2", "c": "-z1^2*(1+z1)"}},
}


@pytest.mark.parametrize("command", sorted(SINGLE_STAGE))
def test_stage_reads_the_job_discriminant(command, monkeypatch):
    discs = []
    discriminant = differentials.discriminant

    def counted_discriminant(w):
        discs.append(w)
        return discriminant(w)

    monkeypatch.setattr(differentials, "discriminant", counted_discriminant)
    _, report = invoke(command, SINGLE_STAGE[command])
    assert command in report["results"]
    assert len(discs) == 1
    # the call is on the job's own differential, axis content included
    assert discs[0].a.ord_along_axis(0) == (2 if command == "split" else 0)


def test_classify_measures_each_component_once(monkeypatch):
    # core_discriminant and classify_component both need each component's
    # multiplicity in the discriminant and in a, b, c
    calls = []
    multiplicity = differentials.multiplicity

    def counted_multiplicity(s, h):
        calls.append((s, h))  # holding s and h keeps their ids unique
        return multiplicity(s, h)

    monkeypatch.setattr(differentials, "multiplicity", counted_multiplicity)
    doc = DOCS["coefficients"]  # c = 0, components z1 and z2
    _, report = invoke("classify", doc)
    assert set(report["results"]["classify"]) == {"z1", "z2"}
    # per component: the discriminant, a and b
    assert len(calls) == 2 * 3
    assert len({(id(s), id(h)) for s, h in calls}) == len(calls)

"""Each link from class text to the head takes one input form: the one
the pipeline passes. This guards against a second form coming back: a
default that lets a caller leave out the vocabulary or the anchor keys,
a field that only a re-check or a regrouping read, or a report field
nothing reads."""

import dataclasses
import inspect

from vlltr import data, head
from vlltr.gradcheck import GradCheckReport

REQUIRED = [(data.load_corpus, "vocab_size"), (data.load_corpus, "max_tokens"),
            (data.parse_tokens, "vocab_size"), (head.lgr_forward, "keys"),
            (head.knn_forward, "keys")]


def test_no_parameter_of_a_removed_form_has_a_default():
    defaults = [f"{function.__name__}({name}=...)"
                for function, name in REQUIRED
                if inspect.signature(function).parameters[name].default
                is not inspect.Parameter.empty]
    assert defaults == []


def test_no_field_of_a_removed_form():
    fields = {"TokenTable": data.TokenTable._fields,
              "ClassCorpus": [f.name for f in
                              dataclasses.fields(data.ClassCorpus)],
              "GradCheckReport": [f.name for f in
                                  dataclasses.fields(GradCheckReport)]}
    removed = {"TokenTable": "max_tokens", "ClassCorpus": "vocab_size",
               "GradCheckReport": "per_input"}
    assert [f"{owner}.{name}" for owner, name in removed.items()
            if name in fields[owner]] == []

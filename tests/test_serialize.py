"""JSON document reader: the parsed objects and validation messages."""

import pytest

from nlprob import parse_document, sequence_model_from_document
from nlprob.errors import ConfigValidationError


@pytest.fixture
def doc():
    return {
        "space": 2,
        "measures": [[0.5, 0.5], [0.8, 0.2]],
        "variables": {"X": [0.0, 1.0], "Y": [3.0, -1.0]},
    }


def holds(doc, credal, variables):
    """Whether the parsed objects carry exactly the document's numbers."""
    return (credal.size == doc["space"]
            and credal.weight_matrix().tolist() == doc["measures"]
            and {name: var.values.tolist() for name, var in variables.items()}
            == doc["variables"])


class TestParseDocument:
    def test_round_trip_is_identity(self, doc):
        credal, variables = parse_document(doc)
        assert credal.size == doc["space"]
        assert holds(doc, credal, variables)

    def test_field_order_is_irrelevant(self, doc):
        shuffled = {"variables": doc["variables"], "space": doc["space"],
                    "measures": doc["measures"]}
        credal, variables = parse_document(shuffled)
        assert holds(doc, credal, variables)

    def test_variable_order_follows_listing_order(self, doc):
        _, variables = parse_document(doc)
        assert list(variables) == ["X", "Y"]
        assert variables["Y"].values.tolist() == [3.0, -1.0]

    def test_missing_fields(self):
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({"measures": [[1.0]]})
        with pytest.raises(ConfigValidationError, match="'measures'"):
            parse_document({"space": 1})
        with pytest.raises(ConfigValidationError, match="JSON object"):
            parse_document([1, 2])

    def test_space_must_be_positive_integer(self, doc):
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({**doc, "space": 0})
        with pytest.raises(ConfigValidationError, match="'space'"):
            parse_document({**doc, "space": 2.0})

    def test_measure_rows_must_match_space(self, doc):
        with pytest.raises(ConfigValidationError, match=r"measures\[1\]"):
            parse_document({**doc, "measures": [[0.5, 0.5], [1.0]]})
        with pytest.raises(ConfigValidationError, match="'measures'"):
            parse_document({**doc, "measures": []})

    def test_variable_length_must_match_space(self, doc):
        bad = {**doc, "variables": {"X": [0.0]}}
        with pytest.raises(ConfigValidationError, match="variables\\['X'\\]"):
            parse_document(bad)

    def test_variables_are_optional(self, doc):
        slim = {"space": doc["space"], "measures": doc["measures"]}
        _, variables = parse_document(slim)
        assert variables == {}


class TestSequenceModelDocuments:
    def test_round_trip(self, doc):
        model = sequence_model_from_document({**doc, "joint": "rectangular"})
        assert model.joint == "rectangular"
        assert holds(doc, model.credal, dict(zip(doc["variables"], model.variables)))

    def test_joint_defaults_to_rectangular(self, doc):
        assert sequence_model_from_document(doc).joint == "rectangular"

    def test_unknown_joint_rejected(self, doc):
        with pytest.raises(ConfigValidationError, match="joint"):
            sequence_model_from_document({**doc, "joint": "copula"})

    def test_needs_a_variable(self, doc):
        slim = {"space": doc["space"], "measures": doc["measures"]}
        with pytest.raises(ConfigValidationError, match="variable"):
            sequence_model_from_document(slim)


"""Tests for scenario document parsing and validation."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import eqm_lab
from eqm_lab.config import (
    DEFAULT_THRESHOLDS,
    ConfigError,
    build_config,
    parse_config,
    with_dt,
)
from eqm_lab.hilbert import SIGMA_X, SIGMA_Z, matrix_to_pairs
from eqm_lab.koopman import HarmonicOscillator
from eqm_lab.observables import StateMeasure

SX = matrix_to_pairs(SIGMA_X)
SZ = matrix_to_pairs(SIGMA_Z)
UP = matrix_to_pairs(np.diag([1.0, 0.0]))
PLUS_VEC = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]


def minimal_doc(**overrides):
    doc = {
        "id": "linear-qubit-test",
        "dimension": 2,
        "hamiltonian": {"type": "linear", "A": SZ},
        "initial": {"state_vector": PLUS_VEC},
        "integrator": {"dt": 1e-3, "t_final": 0.1},
        "outputs": ["invariants"],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_linear_qubit(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        assert cfg.initial.dim == 2
        assert cfg.scenario_id == "linear-qubit-test"
        assert cfg.integrator.dt == 1e-3
        assert cfg.thresholds == DEFAULT_THRESHOLDS

    def test_invalid_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config("{\n  \"id\": }")

    def test_mean_field_document(self):
        doc = minimal_doc(hamiltonian={"type": "mean_field", "A": SX, "B": SZ, "lambda": 1.0})
        cfg = build_config(doc)
        assert cfg.hamiltonian.label == "mean_field"

    def test_polynomial_document(self):
        doc = minimal_doc(hamiltonian={
            "type": "polynomial",
            "terms": [{"coefficient": 0.5, "factors": [SZ, SZ]}],
        })
        assert build_config(doc).hamiltonian.label == "polynomial"

    def test_measure_initial(self):
        doc = minimal_doc(
            initial={"measure": {"support": [UP, matrix_to_pairs(np.eye(2) / 2)],
                                 "weights": [0.25, 0.75]}},
            outputs=["conservation"],
            observables=[{"type": "constant", "A": SX}],
        )
        cfg = build_config(doc)
        assert isinstance(cfg.initial, StateMeasure)
        assert len(cfg.initial.support) == 2

    def test_koopman_only_document(self):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic", "omega": 2.0},
                "observables": [{"name": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
                "times": [0.5],
            },
        }
        cfg = build_config(doc)
        assert cfg.initial is None
        assert cfg.koopman.flow == HarmonicOscillator(omega=2.0)
        assert len(cfg.koopman.generator_points) == 10

    def test_conservation_times_default_to_horizon(self):
        doc = minimal_doc(outputs=["conservation"],
                          observables=[{"type": "constant", "A": SX}])
        assert build_config(doc).conservation_times == (0.1,)


class TestValidation:
    def test_non_unit_trace_initial_names_field_and_value(self):
        doc = minimal_doc(initial={"density_matrix": matrix_to_pairs(np.diag([0.5, 0.4]))})
        with pytest.raises(ConfigError, match="initial.density_matrix") as err:
            build_config(doc)
        assert "0.9" in str(err.value)

    def test_wigner_requires_pair(self):
        doc = minimal_doc(outputs=["wigner"])
        with pytest.raises(ConfigError, match="wigner requires wigner_pair"):
            build_config(doc)

    def test_wigner_requires_pure_initial(self):
        doc = minimal_doc(outputs=["wigner"],
                          initial={"density_matrix": matrix_to_pairs(np.eye(2) / 2)},
                          wigner_pair={"state_vector": PLUS_VEC})
        with pytest.raises(ConfigError, match="pure initial state"):
            build_config(doc)

    def test_wigner_requires_pure_pair(self):
        doc = minimal_doc(outputs=["wigner"],
                          wigner_pair={"density_matrix": matrix_to_pairs(np.eye(2) / 2)})
        with pytest.raises(ConfigError, match=r"^wigner_pair: wigner requires a pure wigner_pair "
                                              r"state, got purity 0\.5$") as err:
            build_config(doc)
        assert err.value.path == "wigner_pair"

    def test_dimension_is_read_as_a_count(self):
        assert build_config(minimal_doc(dimension=2.0)).initial.dim == 2
        with pytest.raises(ConfigError, match=r"^dimension: expected an integer, got 2\.5$"):
            build_config(minimal_doc(dimension=2.5))
        with pytest.raises(ConfigError, match=r"^dimension: expected a finite number, got True$"):
            build_config(minimal_doc(dimension=True))

    @pytest.mark.parametrize("dimension", [1, 65])
    def test_dimension_outside_the_lab_fails_at_its_path(self, dimension):
        with pytest.raises(ConfigError, match=rf"^dimension: dimension must be an integer in "
                                              rf"\[2, 64\], got {dimension}$") as err:
            build_config(minimal_doc(dimension=dimension))
        assert err.value.path == "dimension"

    def test_non_hermitian_literal_rejected_at_parse_time(self):
        skew = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = minimal_doc(hamiltonian={"type": "linear", "A": skew})
        with pytest.raises(ConfigError, match="hamiltonian.A.*Hermitian"):
            build_config(doc)

    def test_dimension_mismatch_names_field(self):
        doc = minimal_doc(dimension=3)
        with pytest.raises(ConfigError, match="hamiltonian.A.*expected dimension 3"):
            build_config(doc)

    def test_unknown_output(self):
        doc = minimal_doc(outputs=["plots"])
        with pytest.raises(ConfigError, match="unknown output 'plots'"):
            build_config(doc)

    def test_unknown_hamiltonian_type(self):
        doc = minimal_doc(hamiltonian={"type": "quartic", "A": SZ})
        with pytest.raises(ConfigError, match="unknown Hamiltonian type"):
            build_config(doc)

    def test_unknown_threshold_key(self):
        doc = minimal_doc(thresholds={"fidelity": 1e-3})
        with pytest.raises(ConfigError, match="thresholds.fidelity"):
            build_config(doc)

    def test_threshold_override(self):
        doc = minimal_doc(thresholds={"conservation": 1e-6})
        assert build_config(doc).thresholds["conservation"] == 1e-6

    def test_trajectory_rejects_measure_initial(self):
        doc = minimal_doc(
            outputs=["trajectory"],
            initial={"measure": {"support": [UP], "weights": [1.0]}},
        )
        with pytest.raises(ConfigError, match="single initial state"):
            build_config(doc)

    def test_conservation_requires_observables(self):
        doc = minimal_doc(outputs=["conservation"])
        with pytest.raises(ConfigError, match="at least one observable"):
            build_config(doc)

    def test_koopman_output_requires_section(self):
        doc = minimal_doc(outputs=["invariants", "koopman"])
        with pytest.raises(ConfigError, match="koopman output requires"):
            build_config(doc)

    def test_integrator_invariants_enforced(self):
        doc = minimal_doc(integrator={"dt": 0.5, "t_final": 0.1})
        with pytest.raises(ConfigError, match="integrator"):
            build_config(doc)

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["hamiltonian"]
        with pytest.raises(ConfigError, match="hamiltonian.*missing"):
            build_config(doc)

    @pytest.mark.parametrize("point, message", [(5, "expected an array"),
                                                 ([1.0], r"expected \[q, p\]")])
    def test_koopman_points_are_phase_points(self, point, message):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "harmonic"},
                "observables": [{"name": "q"}],
                "times": [0.5],
                "points": [point],
            },
        }
        with pytest.raises(ConfigError, match=rf"koopman\.points\[0\]: {message}") as err:
            build_config(doc)
        assert err.value.path == "koopman.points[0]"

    def test_dimension_bounds(self):
        doc = minimal_doc(dimension=1)
        with pytest.raises(ConfigError, match="dimension"):
            build_config(doc)

    @pytest.mark.parametrize("section, key", [("integrator", "record_stride"),
                                              ("integrator", "midpoint_max_iter"),
                                              ("quadrature", "order")])
    def test_integer_fields_reject_fractions(self, section, key):
        doc = _with_integer(section, key, 2.5)
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected an integer, got 2\.5$"):
            build_config(doc)
        build_config(_with_integer(section, key, 50.0))

    def test_conservation_needs_a_time(self):
        doc = minimal_doc(outputs=["conservation"], observables=[{"type": "constant", "A": SX}],
                          conservation_times=[])
        with pytest.raises(ConfigError, match="^conservation_times: need at least one time$"):
            build_config(doc)

    @pytest.mark.parametrize("scenario_id", ["/tmp/escaped", "../x", "a/b", "a\\b", ".", "..",
                                             "a\0b"])
    def test_id_names_one_directory(self, scenario_id):
        with pytest.raises(ConfigError, match="^id: must name one directory") as err:
            build_config(minimal_doc(id=scenario_id))
        assert err.value.path == "id"


def _with_integer(section, key, value):
    """A document whose integrator or koopman quadrature section sets one integer field."""
    if section == "integrator":
        return minimal_doc(integrator={"dt": 1e-3, "t_final": 0.1, key: value})
    return {
        "id": "koopman-test",
        "outputs": ["koopman"],
        "koopman": {"flow": {"type": "harmonic"}, "observables": [{"name": "q"}],
                    "times": [0.5], "quadrature": {key: value}},
    }


CORPUS = sorted((Path(eqm_lab.__file__).resolve().parent / "corpus").glob("*.json"))
FUZZ_VALUES = (None, True, "x", [], {}, 5, 2.5, -1, 0)


def _fuzz_paths(node, prefix=()):
    """Every path below node; a matrix or vector literal (a list of lists) is one leaf."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and not (node and isinstance(node[0], list)):
        children = enumerate(node)
    else:
        return []
    paths = []
    for key, child in children:
        paths.append(prefix + (key,))
        paths.extend(_fuzz_paths(child, prefix + (key,)))
    return paths


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestTypeFuzz:
    @pytest.mark.parametrize("corpus_path", CORPUS, ids=lambda p: p.stem)
    def test_any_wrong_type_is_a_config_error(self, corpus_path):
        # Every node of a shipped document, the document itself included, is
        # replaced by each JSON type in turn; parsing either succeeds or
        # raises ConfigError, which the CLI reports with exit code 2.
        doc = json.loads(corpus_path.read_text())
        for path in [()] + _fuzz_paths(doc):
            for value in FUZZ_VALUES:
                try:
                    build_config(_replaced(doc, path, value))
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{'.'.join(map(str, path)) or '<document>'} = {value!r}: "
                                f"{type(exc).__name__}: {exc}")


def _object_keys(node, prefix=()):
    """The (object path, key) of every key of every object below node, in document order."""
    if isinstance(node, dict):
        children = node.items()
        found = [(prefix, key) for key in node]
    elif isinstance(node, list):
        children, found = enumerate(node), []
    else:
        return []
    for key, child in children:
        found.extend(_object_keys(child, prefix + (key,)))
    return found


def _path_text(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


class TestKeyFuzz:
    @pytest.mark.parametrize("corpus_path", CORPUS, ids=lambda p: p.stem)
    def test_any_unknown_key_is_a_config_error(self, corpus_path):
        # Every key of every object of a shipped document is misspelt in turn
        # by appending "_x"; parsing fails at the misspelt key's path.
        doc = json.loads(corpus_path.read_text())
        build_config(doc)
        keys = _object_keys(doc)
        assert keys
        for prefix, key in keys:
            renamed = copy.deepcopy(doc)
            node = renamed
            for step in prefix:
                node = node[step]
            node[f"{key}_x"] = node.pop(key)
            with pytest.raises(ConfigError) as err:
                build_config(renamed)
            assert err.value.path == _path_text(prefix + (f"{key}_x",)), err.value


class TestShippedConfigs:
    def test_sample_documents_parse(self):
        # The shipped configs are the corpus files, one per suite scenario.
        corpus_dir = Path(eqm_lab.__file__).resolve().parent / "corpus"
        paths = sorted(corpus_dir.glob("*.json"))
        assert len(paths) == 8
        for path in paths:
            parse_config(path.read_text())


class TestDtOverride:
    def test_override_applies(self):
        cfg = build_config(minimal_doc())
        assert with_dt(cfg, 0.05).integrator.dt == 0.05

    def test_override_validates(self):
        cfg = build_config(minimal_doc())
        with pytest.raises(ConfigError, match="integrator.dt"):
            with_dt(cfg, 0.5)  # exceeds t_final = 0.1

    def test_override_without_integrator(self):
        doc = {
            "id": "koopman-test",
            "outputs": ["koopman"],
            "koopman": {
                "flow": {"type": "pendulum", "g": 1.0},
                "observables": [{"name": "q"}],
                "times": [0.1],
            },
        }
        with pytest.raises(ConfigError, match="no integrator"):
            with_dt(build_config(doc), 0.01)

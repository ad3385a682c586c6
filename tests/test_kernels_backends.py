"""Backend registry behaviour: resolution and pickling."""

import pickle

import pytest

from repro.core import RegularConfig, ScubaConfig
from repro.kernels import BACKEND_CHOICES, NumpyBackend, ScalarBackend, resolve_backend


class TestResolution:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("cuda")

    @pytest.mark.parametrize("name", ["python", "auto"])
    def test_retired_names_rejected(self, name):
        """``python`` is the numpy backend's small-input path, selected by
        input size; ``auto`` had nothing left to choose between."""
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="kernel_backend"):
            ScubaConfig(kernel_backend=name)
        with pytest.raises(ValueError, match="kernel_backend"):
            RegularConfig(kernel_backend=name)

    def test_known_names_resolve(self):
        assert BACKEND_CHOICES == ("numpy", "scalar")
        assert isinstance(resolve_backend("scalar"), ScalarBackend)
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert resolve_backend().name == "numpy"

    def test_instances_are_shared(self):
        for name in BACKEND_CHOICES:
            assert resolve_backend(name) is resolve_backend(name)


class TestPickling:
    def test_backend_roundtrips_to_shared_instance(self):
        for name in BACKEND_CHOICES:
            backend = resolve_backend(name)
            clone = pickle.loads(pickle.dumps(backend))
            assert clone is resolve_backend(name)

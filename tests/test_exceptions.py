"""Every exception class under ``repro`` survives a pickle round trip.

An exception raised in a ``--jobs`` worker travels back to the parent
pickled; one that cannot be rebuilt from its pickle breaks the process
pool instead of reporting the error.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.cxl.allocator import OutOfMemoryError
from repro.exceptions import PoisonError
from repro.faults.recovery import RetryExhaustedError

#: Constructor arguments of the classes whose ``__init__`` takes more than
#: a message.
SAMPLES = {
    OutOfMemoryError: ("cxl", 4, 1, 8),
    PoisonError: ("cxl", [7, 9], "restore"),
    RetryExhaustedError: (3, OutOfMemoryError("cxl", 4, 1, 8)),
}


def _exception_classes() -> list:
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == info.name):
                found.append(value)
    return found


CLASSES = _exception_classes()


def test_finds_the_custom_constructors():
    assert set(SAMPLES) <= set(CLASSES)


@pytest.mark.parametrize(
    "cls", CLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}"
)
def test_round_trips_through_pickle(cls):
    error = cls(*SAMPLES.get(cls, ("boom",)))
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert str(again) == str(error)
    assert sorted(vars(again)) == sorted(vars(error))

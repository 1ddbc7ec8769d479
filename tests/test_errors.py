"""Every cyclicpd error survives a pickle round trip, as a verify worker's
error must on its way to the parent process."""
import pickle

import pytest

from cyclicpd import errors


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def instances():
    for cls in subclasses(errors.CyclicPDError):
        if cls is errors.NotPositiveDefinite:
            yield cls(-1e-3)
            yield cls(-2, "a custom message")
        else:
            yield cls("some message")


def test_every_error_class_is_covered():
    assert len(list(subclasses(errors.CyclicPDError))) == 10


@pytest.mark.parametrize("exc", list(instances()), ids=repr)
def test_pickle_round_trip(exc):
    exc.note = "set after construction"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)

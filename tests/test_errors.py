import inspect

import foelner
from foelner import errors
from foelner.errors import FoelnerError


def test_every_error_derives_from_the_base():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, Exception)]
    assert FoelnerError in classes
    for cls in classes:
        assert issubclass(cls, FoelnerError)
    assert {cls.__name__ for cls in classes} == {
        "FoelnerError", "InvalidSpec", "WeightUndefined", "ResourceLimit", "WindowTooSmall",
        "NumericalFailure", "TooFewSamples", "NotQuasidiagonalAlongFamily",
        "SelectorOutOfRange", "NotHermitian", "RankStall", "NonHermitianCompression"}


def test_errors_are_reexported_at_package_level():
    for name in ("InvalidSpec", "WindowTooSmall", "TooFewSamples",
                 "NotQuasidiagonalAlongFamily"):
        assert getattr(foelner, name) is getattr(errors, name)

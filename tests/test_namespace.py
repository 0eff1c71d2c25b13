"""The package namespace is its modules' __all__, each name declared once."""

import importlib
import inspect
import pkgutil

import qcthermo

# every module but the command-line front end
MODULES = [m.name for m in pkgutil.iter_modules(qcthermo.__path__) if m.name != "cli"]


def module_all(name):
    # import_module returns the module, where qcthermo.theta is the function
    return importlib.import_module(f"qcthermo.{name}").__all__


def test_lazy_names_match_their_modules():
    for name, names in qcthermo._LAZY.items():
        assert set(module_all(name)) == set(names), name


def test_no_name_has_two_homes():
    homes = {}
    for module in MODULES:
        for name in module_all(module):
            assert name not in homes, f"{name} in {homes.get(name)} and {module}"
            homes[name] = module


def test_package_all_is_version_and_the_modules_all():
    names = [name for module in MODULES for name in module_all(module)]
    assert qcthermo.__all__[0] == "__version__"
    assert sorted(qcthermo.__all__[1:]) == sorted(names)


def test_every_public_name_is_its_home_modules_object():
    for module in MODULES:
        home = importlib.import_module(f"qcthermo.{module}")
        for name in module_all(module):
            assert getattr(qcthermo, name) is getattr(home, name), f"{module}.{name}"
    assert inspect.isfunction(qcthermo.theta)

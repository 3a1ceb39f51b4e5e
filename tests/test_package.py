import planmark


def test_star_import_binds_every_exported_name_once():
    namespace = {}
    exec("from planmark import *", namespace)
    assert [name for name in planmark.__all__ if name not in namespace] == []
    assert len(set(planmark.__all__)) == len(planmark.__all__)

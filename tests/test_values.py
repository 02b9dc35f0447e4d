"""The value classes: construction, equality, hash, repr and immutability.

One instance per class.  The expected reprs are those of the frozen
dataclasses these classes once were; equality, hash and immutability
keep the same rules: ``NotImplemented`` against any other class, the
hash of the tuple of compared fields, and no assignment or deletion.
"""

import copy
import inspect
import pickle
import types

import pytest

from diracdual.dirac import DiracResult, spin_lkt_unipotent
from diracdual.spectrum import UnipotentFamily
from diracdual.unipotent import OrbitPartition, UnipotentParam, enumerate_parameters, validate
from diracdual.unitarity import StringDecomp, UnitarityVerdict
from diracdual.weights import HalfIntVec, KType, RootDatum, ZhParam, vec

B3 = RootDatum("B", 3)
KT = KType(vec(1, 1, 0), B3)
KT_REPR = "KType(hw=HalfIntVec(1,1,0), datum=RootDatum(family='B', rank=3))"


def _instances():
    """(instance, a fresh equal instance, compared fields, repr)."""
    zh = lambda: ZhParam(vec("5/2", "3/2", "1/2"), vec("5/2", "1/2", "-3/2"), B3)
    orbit = lambda: validate((2, 2), "D")
    param = lambda: enumerate_parameters(orbit())[0]
    p = param()
    return [
        (HalfIntVec((5, 3, 1)), HalfIntVec((5, 3, 1)), ((5, 3, 1),),
         "HalfIntVec(5/2,3/2,1/2)"),
        (B3, RootDatum("B", 3), ("B", 3), "RootDatum(family='B', rank=3)"),
        (KT, KType(vec(1, 1, 0), RootDatum("B", 3)), (KT.hw, B3), KT_REPR),
        (zh(), zh(), (vec("5/2", "3/2", "1/2"), vec("5/2", "1/2", "-3/2"), B3),
         "ZhParam(lambda_L=HalfIntVec(5/2,3/2,1/2), "
         "lambda_R=HalfIntVec(5/2,1/2,-3/2), datum=RootDatum(family='B', rank=3))"),
        (UnipotentFamily("B", a=1, b=2), UnipotentFamily("B", 1, 2), ("B", 1, 2, 0),
         "UnipotentFamily(kind='B', a=1, b=2, n=0)"),
        (DiracResult(True, KT, 2, ((KT, 1),), {"floor": True}),
         DiracResult(True, KT, 2, ((KT, 1),), {"floor": True}),
         (True, KT, 2, ((KT, 1),)),
         "DiracResult(nonzero=True, tau=%s, multiplicity=2, spin_lkts=((%s, 1),), "
         "checks={'floor': True})" % (KT_REPR, KT_REPR)),
        (StringDecomp(B3, 1, 0, kappa=((2, 3),)), StringDecomp(B3, 1, 0, ((2, 3),)),
         (B3, 1, 0, ((2, 3),), ()),
         "StringDecomp(datum=RootDatum(family='B', rank=3), kappa0_len=1, "
         "sigma0_len=0, kappa=((2, 3),), sigma=())"),
        (UnitarityVerdict("NonUnitary", "B:boundary-pair", witness=(KT,)),
         UnitarityVerdict("NonUnitary", "B:boundary-pair", None, (KT,), ""),
         ("NonUnitary", "B:boundary-pair", None, (KT,), ""),
         "UnitarityVerdict(status='NonUnitary', case='B:boundary-pair', "
         "certificate=None, witness=(%s,), notes='')" % KT_REPR),
        (orbit(), OrbitPartition((2, 2), "D"), ((2, 2), "D"),
         "OrbitPartition(rows=(2, 2), family='D')"),
        (p, param(), (orbit(), (), p.zh, "I/II"),
         "UnipotentParam(orbit=OrbitPartition(rows=(2, 2), family='D'), eta=(), "
         "zh=ZhParam(lambda_L=HalfIntVec(1/2,-1/2), lambda_R=HalfIntVec(1/2,-1/2), "
         "datum=RootDatum(family='D', rank=2)), very_even_tag='I/II')"),
    ]


CASES = _instances()
IDS = [type(x).__name__ for x, *_ in CASES]


@pytest.mark.parametrize("x, same, fields, text", CASES, ids=IDS)
def test_repr(x, same, fields, text):
    assert repr(x) == text


@pytest.mark.parametrize("x, same, fields, text", CASES, ids=IDS)
def test_equality_is_per_class(x, same, fields, text):
    assert x == same and not x != same and x is not same
    # the same field values under another class never compare equal
    names = inspect.signature(type(x)).parameters
    lookalike = types.SimpleNamespace(**dict(zip(names, fields)))
    assert x != lookalike and x != fields
    assert x.__eq__(lookalike) is NotImplemented
    assert x.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("x, same, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(x, same, fields, text):
    assert hash(x) == hash(fields) == hash(same)
    assert len({x, same}) == 1


@pytest.mark.parametrize("x, same, fields, text", CASES, ids=IDS)
def test_fields_are_read_only(x, same, fields, text):
    name = next(iter(inspect.signature(type(x)).parameters))
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, before)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, name) is before


@pytest.mark.parametrize("x, same, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(x, same, fields, text):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)


def test_unhashable_certificate_makes_the_verdict_unhashable():
    v = UnitarityVerdict("Unitary", "B:x", certificate={"k": 1}, notes="n")
    assert repr(v) == (
        "UnitarityVerdict(status='Unitary', case='B:x', certificate={'k': 1}, "
        "witness=(), notes='n')")
    with pytest.raises(TypeError):
        hash(v)


def test_keyword_construction_and_defaults():
    assert StringDecomp(datum=B3, kappa0_len=1, sigma0_len=2) == StringDecomp(
        B3, 1, 2, (), ())
    assert UnitarityVerdict(status="Unitary", case="c").certificate is None
    assert UnitarityVerdict("Unitary", "c").witness == ()
    assert UnitarityVerdict("Unitary", "c").notes == ""
    orbit = OrbitPartition(rows=(1, 1), family="D")
    zh = ZhParam(lambda_L=vec(0), lambda_R=vec(0), datum=RootDatum("D", 1))
    assert UnipotentParam(orbit=orbit, eta=(), zh=zh).very_even_tag == ""
    assert KType(hw=vec(1, 0), datum=RootDatum(family="C", rank=2)).hw == vec(1, 0)
    assert HalfIntVec(doubled=[2, 0]).doubled == (2, 0)
    for bad in ((), ("B", 3, 4)):
        with pytest.raises(TypeError):
            RootDatum(*bad)


def test_unipotent_family_zeroes_the_sizes_its_kind_does_not_read():
    c = UnipotentFamily("C_even", a=3, b=4, n=2)
    assert (c.a, c.b, c.n) == (0, 0, 2)
    assert c == UnipotentFamily(kind="C_even", n=2)
    b = UnipotentFamily("B", a=1, b=2, n=5)
    assert (b.a, b.b, b.n) == (1, 2, 0)
    assert b == UnipotentFamily("B", 1, 2)
    assert UnipotentFamily("A", 1, 1).n == 0


def test_dirac_result_ignores_checks():
    a = DiracResult(True, KT, 2, ((KT, 1),), {"floor": True})
    b = DiracResult(True, KT, 2, ((KT, 1),))
    assert b.checks == {} and a == b and hash(a) == hash(b)
    assert DiracResult(False, None, None, ()).checks is not DiracResult(
        False, None, None, ()).checks
    assert a != DiracResult(True, KT, 4, ((KT, 1),), {"floor": True})


def test_each_spin_lkt_call_gets_its_own_checks():
    fam = UnipotentFamily("C_even", n=2)
    first, second = spin_lkt_unipotent(fam), spin_lkt_unipotent(fam)
    assert first == second and first.checks == second.checks
    assert first.checks is not second.checks
    first.checks["floor"] = "changed"
    assert "floor" not in spin_lkt_unipotent(fam).checks

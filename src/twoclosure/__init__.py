"""2-closure computations for finite permutation groups.

Core objects: permutations and generator-given groups with deterministic
stabilizer chains, orbital partitions with definitional closure membership,
an exact 2-closure engine, faithful-action constructions, witness
certificates for non-2-closed groups, and the classification of finite
nilpotent groups that are 2-closed in every faithful representation.

Importing the package loads no submodule: each public name is imported from
its submodule on first access (PEP 562), so a CLI call pays only for the
modules its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    name: module
    for module, names in {
        "actions": "CosetAction EmbeddedAction "
        "QuotientAction action_hom coset_action disjoint_union_action quotient_action "
        "universal_embedding",
        "catalog": "FamilySpec faithful_representations parse_family realize realize_name subgroup_lattice",
        "classify": "CenterTest CoprimeCertification Verdict center_cyclic_test certify_coprime_product "
        "classify_nilpotent is_generalized_quaternion not_two_closed_witness",
        "errors": "ConstructionFailure CycleParseError GuardExceeded InternalDefect PreconditionError",
        "group": "ENUMERATION_GUARD PermGroup SubgroupHandle as_subgroup center centralizer core "
        "is_cyclic is_nilpotent is_normal sylow_decomposition",
        "orbital": "CLOSURE_DEGREE_GUARD MembershipEvidence OrbitalPartition is_in_two_closure "
        "membership_evidence orbital_partition two_closure two_equivalent",
        "perm": "Permutation from_cycles identity parse_cycles",
        "witnesses": "CERTIFICATE_DEGREE_GUARD WitnessCertificate abelian_basis abelian_p_witness center_witness "
        "check_certificate odd_p_witness semidirect_witness two_group_witness",
    }.items()
    for name in names.split()
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    """Import a public name from its submodule and keep it in the package."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCES.keys())

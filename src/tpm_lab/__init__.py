"""Exact and Monte Carlo verification of exponential averages in
two-point-measurement experiments on finite-dimensional quantum systems.

The identity under test: the exponentiated negative single-trial mutual
information of the outcome pair averages to one, ⟨e^{−I}⟩ = 1, by
conservation of probability alone. With Gibbs initial states and energy
measurements it specializes to the Jarzynski equality
⟨e^{−βW}⟩ = Z'/Z. Both are checked exactly by enumeration
(:mod:`tpm_lab.tpm`) and statistically by sampling
(:mod:`tpm_lab.sampler`); :mod:`tpm_lab.cli` runs declarative JSON
scenarios from the command line.
"""

from .errors import ConfigError, ValidationError
from .linalg import (
    haar_random_unitary,
    hermitian_eig,
    random_hermitian,
)
from .quantum import (
    DensityMatrix,
    GibbsEnsemble,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    maximally_mixed,
    standard_channel,
    unitary_from_hamiltonian,
)
from .sampler import (
    EstimatorReport,
    estimate_exponential_average,
    sample_trajectories,
)
from .scenarios import (
    BuiltScenario,
    ScenarioConfig,
    build_scenario,
    derive_seed,
    load_scenario,
    scenario_from_dict,
)
from .tpm import (
    JointDistribution,
    MutualInformationTable,
    TpmExperiment,
    WorkStatistics,
    compare_mi_to_dissipation,
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ValidationError",
    "hermitian_eig",
    "haar_random_unitary",
    "random_hermitian",
    "DensityMatrix",
    "ProjectorFamily",
    "KrausChannel",
    "GibbsEnsemble",
    "gibbs_ensemble",
    "eigen_measurement",
    "channel_from_unitary",
    "unitary_from_hamiltonian",
    "standard_channel",
    "maximally_mixed",
    "TpmExperiment",
    "JointDistribution",
    "MutualInformationTable",
    "WorkStatistics",
    "joint_distribution",
    "distribution_from_joint",
    "mutual_information_table",
    "work_statistics",
    "compare_mi_to_dissipation",
    "EstimatorReport",
    "sample_trajectories",
    "estimate_exponential_average",
    "ScenarioConfig",
    "BuiltScenario",
    "load_scenario",
    "scenario_from_dict",
    "build_scenario",
    "derive_seed",
    "__version__",
]

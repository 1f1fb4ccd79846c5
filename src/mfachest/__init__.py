"""Mixture-of-factor-analyzers channel modeling and MMSE channel estimation."""

from ._binio import FileFormatError
from .baselines import (
    Dictionary,
    GmmModel,
    build_dft_dictionary,
    fit_gmm,
    fit_sample_lmmse,
    genie_omp_batch,
    gmm_estimate,
    gmm_from_mfa,
    load_gmm,
    ls_estimate,
    save_gmm,
)
from .bench import (
    BenchSpec,
    EstimatorSpec,
    ReportRow,
    bench_spec_from_json,
    report_csv,
    report_jsonl,
    run_grid_sweep,
    run_latent_sweep,
    run_snr_sweep,
)
from .estimator import estimate
from .gaussians import ConditioningError
from .mfa import (
    FitConfig,
    FitTrace,
    MfaModel,
    fit_em,
    load_model,
    log_likelihood,
    parameter_count,
    save_model,
)
from .scenario import (
    ChannelDataset,
    ScenarioConfig,
    corrupt,
    generate_channels,
    normalize_dataset,
    read_dataset,
    write_dataset,
)

__version__ = "0.1.0"

"""Two-way relay exchange over AWGN with structured (lattice and linear) codes."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    CoarseLattice,
    NestedLatticePair,
    dither,
    encode_message,
    make_pair,
    mod_coarse,
    modulo_diff,
    modulo_sum,
    quantize_fine,
)
from .rates import (  # noqa: F401
    crossover_window,
    envelope,
    rate_anc,
    rate_joint_decoding,
    rate_lattice,
    rate_pure_nc,
    rate_upper,
)
from .twoway import (  # noqa: F401
    BroadcastMode,
    ChannelParams,
    ExchangeTranscript,
    encode_node,
    recover_at_node,
    relay_decode_sum,
    run_session,
)

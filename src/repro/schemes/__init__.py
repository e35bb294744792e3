"""The multicast authentication schemes analyzed by the paper.

Each scheme exposes its dependence-graph (the object the paper's
framework analyzes), real packetization — byte-level authenticated
packets — and, through :meth:`Scheme.new_trial`, the verifier that
checks them.
"""

from repro.schemes.augmented_chain import AugmentedChainScheme, ac_vertex_coordinates
from repro.schemes.base import ChainEdges, Scheme, Trial, Verifier, build_block
from repro.schemes.emss import EmssScheme, GenericOffsetScheme
from repro.schemes.random_graph import RandomGraphScheme
from repro.schemes.registry import (
    available_schemes,
    make_scheme,
    paper_comparison_schemes,
)
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.rohatgi_online import OnlineRohatgiScheme
from repro.schemes.saida import SaidaReceiver, SaidaScheme
from repro.schemes.sign_each import SignEachScheme
from repro.schemes.tesla import (
    BootstrapInfo,
    TeslaParameters,
    TeslaReceiver,
    TeslaScheme,
    TeslaSender,
    TeslaVerdict,
    TeslaVerifier,
)
from repro.schemes.wong_lam import WongLamScheme, verify_wong_lam_packet

__all__ = [
    "Scheme",
    "Trial",
    "Verifier",
    "ChainEdges",
    "build_block",
    "AugmentedChainScheme",
    "ac_vertex_coordinates",
    "EmssScheme",
    "GenericOffsetScheme",
    "RandomGraphScheme",
    "RohatgiScheme",
    "OnlineRohatgiScheme",
    "SaidaReceiver",
    "SaidaScheme",
    "SignEachScheme",
    "BootstrapInfo",
    "TeslaParameters",
    "TeslaReceiver",
    "TeslaScheme",
    "TeslaSender",
    "TeslaVerdict",
    "TeslaVerifier",
    "WongLamScheme",
    "verify_wong_lam_packet",
    "available_schemes",
    "make_scheme",
    "paper_comparison_schemes",
]

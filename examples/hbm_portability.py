#!/usr/bin/env python3
"""Protocol portability: the same PAC logic on HMC 1.0, HMC 2.1 and HBM.

Section 4.1 argues PAC ports across 3D-stacked device generations by
swapping the protocol descriptor — block-sequence width and coalescing
table size — with no change to the coalescing logic. The device fixes
the descriptor: an HMC device whose packets stop at 128B speaks HMC 1.0.
This example runs STREAM on all three and shows packet sizes scaling
with each device's maximum while the pipeline stays identical.

Run:  python examples/hbm_portability.py
"""

from collections import Counter

from repro.config import TABLE1
from repro.engine.system import CoalescerKind, System
from repro.mshr.dmc import RecordingDevice

N_ACCESSES = 30_000


def run(device, config):
    system = System(config, CoalescerKind.PAC, device=device)
    trace = system.build_trace(["stream"], N_ACCESSES)
    raw = system.hierarchy.process(trace).packed
    # The outcome keeps totals; the packets are read where they end, at
    # the device.
    device = RecordingDevice(system.device)
    outcome = system.coalescer.process(raw, device)
    sizes = Counter(packet.size for packet, _ in device.submits)
    return outcome, sizes, system


def main() -> None:
    print("PAC protocol portability (STREAM workload)\n")
    configs = (
        ("hmc", TABLE1.with_hmc(max_packet_bytes=128)),
        ("hmc", TABLE1),
        ("hbm", TABLE1),
    )
    for device, config in configs:
        outcome, sizes, system = run(device, config)
        protocol = system.protocol
        dist = ", ".join(
            f"{size}B x {count}" for size, count in sorted(sizes.items())
        )
        print(f"{protocol.name:12s} grain={protocol.grain_bytes:>4d}B "
              f"max_packet={protocol.max_packet_bytes:>5d}B "
              f"chunk={protocol.chunk_width:>2d} bits")
        print(f"{'':12s} efficiency={outcome.coalescing_efficiency:.1%} "
              f"tx_eff={outcome.transaction_efficiency:.1%}")
        print(f"{'':12s} packets: {dist}")
        if device == "hbm":
            remote = system.device.stats.count("remote_routes")
            print(f"{'':12s} remote crossbar routes: {remote} "
                  "(HBM channels are directly addressed)")
        print()

    print("Same aggregator, decoder, and assembler classes in all three"
          " runs — only the MemoryProtocol object changed, exactly the"
          " portability claim of Section 4.1.")


if __name__ == "__main__":
    main()

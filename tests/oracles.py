"""Independent brute-force reference implementations used only by tests.

Everything here is written from the defining formulas with naive loops and
direct summations, deliberately sharing no code with the package under test.
"""

import numpy as np


def naive_dft(x, n_fft):
    """O(n^2) DFT by direct summation of the defining series."""
    x = np.asarray(x, dtype=np.float64)
    padded = np.zeros(n_fft)
    padded[:len(x)] = x
    out = np.zeros(n_fft, dtype=np.complex128)
    for k in range(n_fft):
        for n in range(n_fft):
            out[k] += padded[n] * np.exp(-2j * np.pi * k * n / n_fft)
    return out


def naive_dct2_ortho(x):
    """Orthonormal DCT-II by direct summation."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = 0.0
        for i in range(n):
            s += x[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def mel_points_hz(n_mels, fmin, fmax):
    """n_mels + 2 filter edge/center frequencies, equal-spaced in mel."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mels = np.linspace(to_mel(fmin), to_mel(fmax), n_mels + 2)
    return np.array([to_hz(m) for m in mels])


def naive_filterbank(n_mels, n_fft, sample_rate, fmin, fmax):
    """Peak-1 triangular filters evaluated at FFT bin frequencies."""
    pts = mel_points_hz(n_mels, fmin, fmax)
    n_bins = n_fft // 2 + 1
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = pts[m], pts[m + 1], pts[m + 2]
        for b in range(n_bins):
            f = b * sample_rate / n_fft
            if lo < f <= center:
                fb[m, b] = (f - lo) / (center - lo)
            elif center < f < hi:
                fb[m, b] = (hi - f) / (hi - center)
            elif f == lo == center:  # degenerate, not expected with valid cfg
                fb[m, b] = 1.0
    return fb


def naive_mfcc(samples, sample_rate, n_mels=26, n_coeffs=13, fmin=0.0,
               fmax=None, pre_emph=0.97, frame_len=400, hop=160, n_fft=512):
    """Full MFCC chain with direct DFT / filterbank / DCT summations; the
    DFT is one matrix of the defining series' terms, built once."""
    if fmax is None:
        fmax = sample_rate / 2
    x = np.asarray(samples, dtype=np.float64)

    y = np.empty_like(x)
    y[0] = x[0]
    for n in range(1, len(x)):
        y[n] = x[n] - pre_emph * x[n - 1]

    window = np.array([0.5 * (1 - np.cos(2 * np.pi * k / frame_len))
                       for k in range(frame_len)])
    num_frames = 1 + (len(y) - frame_len) // hop
    fb = naive_filterbank(n_mels, n_fft, sample_rate, fmin, fmax)
    # dft[k, n] = exp(-2 pi i k n / n_fft) for the kept bins k <= n_fft / 2
    # and the frame's samples n < frame_len (the zero padding adds nothing)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_fft // 2 + 1),
                                        np.arange(frame_len)) / n_fft)

    out = np.zeros((num_frames, n_coeffs))
    for i in range(num_frames):
        frame = y[i * hop:i * hop + frame_len] * window
        power = np.abs(dft @ frame) ** 2
        energies = np.array([np.sum(fb[m] * power) for m in range(n_mels)])
        log_e = np.log(energies + 1e-10)
        out[i] = naive_dct2_ortho(log_e)[:n_coeffs]
    return out


def recount_metrics(y_true, y_pred, k):
    """Confusion matrix, accuracy, per-class precision/recall by raw
    recounting over the label pairs."""
    cm = [[0] * k for _ in range(k)]
    for t, p in zip(y_true, y_pred):
        cm[t][p] += 1
    total = len(y_true)
    correct = sum(cm[c][c] for c in range(k))
    accuracy = correct / total
    precision = []
    recall = []
    for c in range(k):
        col = sum(cm[i][c] for i in range(k))
        row = sum(cm[c][j] for j in range(k))
        precision.append(cm[c][c] / col if col else 0.0)
        recall.append(cm[c][c] / row if row else 0.0)
    return np.array(cm), accuracy, precision, recall


def half_padded_stft_frames(x, n_fft):
    """Periodic-Hann frames of length n_fft at hop n_fft/2 over x padded
    with n_fft/2 zeros in front and n_fft zeros behind, one at a time."""
    hop = n_fft // 2
    padded = np.concatenate([np.zeros(hop), np.asarray(x, dtype=np.float64),
                             np.zeros(n_fft)])
    window = np.array([0.5 * (1 - np.cos(2 * np.pi * k / n_fft))
                       for k in range(n_fft)])
    frames = []
    start = 0
    while start + n_fft <= len(padded):
        frames.append(padded[start:start + n_fft] * window)
        start += hop
    return np.array(frames)


def loop_noise_profile(x, lead, n_fft):
    """Mean magnitude spectrum of the half_padded_stft_frames rows 1 .. m,
    the frames lying wholly inside the first `lead` samples of x, summed
    one frame at a time. Row i >= 1 covers samples (i-1)*hop onwards."""
    hop = n_fft // 2
    frames = half_padded_stft_frames(x, n_fft)
    total = np.zeros(n_fft // 2 + 1)
    m = 0
    for i in range(1, len(frames)):
        if (i - 1) * hop + n_fft > min(lead, len(x)):
            break
        total += np.abs(np.fft.rfft(frames[i]))
        m += 1
    return total / m


def loop_spectral_subtract(x, noise_magnitude, alpha, beta, n_fft):
    """Spectral subtraction frame by frame: M' = max(M - alpha N, beta M)
    with the frame's own phase, inverse transform, then overlap-add in
    frame order; the front half-frame pad is dropped."""
    hop = n_fft // 2
    frames = half_padded_stft_frames(x, n_fft)
    acc = np.zeros(hop * (len(frames) - 1) + n_fft)
    for i, frame in enumerate(frames):
        spec = np.fft.rfft(frame)
        mag = np.abs(spec)
        new_mag = np.maximum(mag - alpha * noise_magnitude, beta * mag)
        resynth = np.fft.irfft(new_mag * np.exp(1j * np.angle(spec)), n=n_fft)
        for j in range(n_fft):
            acc[i * hop + j] += resynth[j]
    return acc[hop:hop + len(x)]


def walk_tree_nodes(nodes, x):
    """Leaf probabilities of row x from a row-by-row walk of a tree's
    model-JSON nodes, going left when x <= threshold."""
    node = nodes[0]
    while "proba" not in node:
        go_left = x[node["feature"]] <= node["threshold"]
        node = nodes[node["left"] if go_left else node["right"]]
    return np.asarray(node["proba"])


def float_cells(rows, n_cols):
    """Cells of a table of strings, each by Python's float in row order: the
    (len(rows), n_cols) float64 matrix and None, or None and the (row,
    column) of the first cell that float rejects."""
    values = []
    for i, row in enumerate(rows):
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                return None, (i, j)
        values.append(parsed)
    return np.array(values, dtype=np.float64).reshape(len(rows), n_cols), None

"""Naive loop-based references for the tensor ops.

Everything here is written as plainly as possible (explicit loops, one
pixel at a time) and imports only numpy, so these stay independent of the
vectorized implementations they verify.
"""

import numpy as np


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.zeros((bsz, cin, h + 2 * ph, wid + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wid] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wid + 2 * pw - kw) // sw + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=np.float64)
    out_per_group = cout // groups
    for n in range(bsz):
        for co in range(cout):
            g = co // out_per_group
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[n, g * cin_g + ci, i * sh + u, j * sw + v]
                                        * w[co, ci, u, v])
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out.astype(x.dtype)


def tap_conv2d(x, w, b, g, stride=1, padding=0, groups=1):
    """Grouped conv as kh*kw batched matmuls, one per tap, over a contiguous
    copy of each tap's strided input slice; forward and adjoint.

    ``g`` is the output adjoint. Returns ``(y, gx, gw, gb)``, with ``gb``
    None when ``b`` is. This is the loop ``ops.conv2d`` ran before its
    im2col lowering. Taps run in row-major order and each adds its products
    into the output and the input adjoint, the same operations as the
    depthwise path, so it is that path's bitwise reference.
    """
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    bsz, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    hp, wp = xp.shape[2:]
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    n = ho * wo
    xg = xp.reshape(bsz, groups, cin_g, hp, wp)
    wg = w.reshape(groups, cout // groups, cin_g, kh, kw)
    gg = g.reshape(bsz, groups, cout // groups, n)
    out = np.zeros((bsz, groups, cout // groups, n), dtype=x.dtype)
    gw = np.empty_like(wg)
    gxp = np.zeros((bsz, groups, cin_g, hp, wp), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            rows = slice(u, u + sh * (ho - 1) + 1, sh)
            cols = slice(v, v + sw * (wo - 1) + 1, sw)
            xs = np.ascontiguousarray(xg[:, :, :, rows, cols]).reshape(bsz, groups, cin_g, n)
            wt = wg[None, :, :, :, u, v]
            out += np.matmul(wt, xs)
            gw[:, :, :, u, v] = np.matmul(gg, xs.swapaxes(-1, -2)).sum(axis=0)
            gxp[:, :, :, rows, cols] += np.matmul(wt.swapaxes(-1, -2), gg).reshape(bsz, groups, cin_g, ho, wo)
    y = out.reshape(bsz, cout, ho, wo)
    if b is not None:
        y = y + b.reshape(1, cout, 1, 1)
    gx = gxp.reshape(bsz, cin, hp, wp)[:, :, ph:ph + h, pw:pw + wid]
    gb = None if b is None else g.sum(axis=(0, 2, 3))
    return y, gx, gw.reshape(w.shape), gb


def naive_pool2d(x, kind, kernel, stride=None):
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
    if stride is None:
        stride = (kh, kw)
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    bsz, c, h, wid = x.shape
    ho = (h - kh) // sh + 1
    wo = (wid - kw) // sw + 1
    out = np.zeros((bsz, c, ho, wo), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    patch = x[n, ch, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[n, ch, i, j] = patch.mean() if kind == "avg" else patch.max()
    return out


def naive_matmul(a, b):
    if a.ndim == 2:
        n, k = a.shape
        k2, m = b.shape
        out = np.zeros((n, m), dtype=a.dtype)
        for i in range(n):
            for j in range(m):
                out[i, j] = sum(a[i, t] * b[t, j] for t in range(k))
        return out
    out = np.stack([naive_matmul(ai, bi) for ai, bi in zip(a, b)])
    return out


def naive_bilinear(x, out_hw):
    """Half-pixel-center bilinear upsampling, one output pixel at a time."""
    bsz, c, h, w = x.shape
    ho, wo = out_hw
    out = np.zeros((bsz, c, ho, wo), dtype=x.dtype)
    for i in range(ho):
        yi = max((i + 0.5) * h / ho - 0.5, 0.0)
        y0 = min(int(np.floor(yi)), h - 1)
        y1 = min(y0 + 1, h - 1)
        fy = yi - y0
        for j in range(wo):
            xj = max((j + 0.5) * w / wo - 0.5, 0.0)
            x0 = min(int(np.floor(xj)), w - 1)
            x1 = min(x0 + 1, w - 1)
            fx = xj - x0
            out[:, :, i, j] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                               + (1 - fy) * fx * x[:, :, y0, x1]
                               + fy * (1 - fx) * x[:, :, y1, x0]
                               + fy * fx * x[:, :, y1, x1])
    return out


def naive_nearest(x, factors):
    fh, fw = factors
    bsz, c, h, w = x.shape
    out = np.zeros((bsz, c, h * fh, w * fw), dtype=x.dtype)
    for i in range(h * fh):
        for j in range(w * fw):
            out[:, :, i, j] = x[:, :, i // fh, j // fw]
    return out


def naive_softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def naive_channel_shuffle(x, groups):
    """Direct index-map form: output j takes input (j % g) * (C/g) + j // g."""
    c = x.shape[1]
    cg = c // groups
    order = [(j % groups) * cg + j // groups for j in range(c)]
    return x[:, order]


def naive_window_attention(x, w_qkv, window_size, heads):
    """Window attention plus the per-axis window pools, one window and head
    at a time.

    ``x`` is (B, C, H, W) and ``w_qkv`` the (3C, C, 1, 1) projection. The
    input is zero-padded at the bottom/right to whole windows and the output
    cropped back. Returns the output and the softmax rows as
    (B, rows, cols, heads, ws*ws, ws*ws).
    """
    b, c, h, w = x.shape
    ws = window_size
    rows, cols = -(-h // ws), -(-w // ws)
    xp = np.zeros((b, c, rows * ws, cols * ws), dtype=np.float64)
    xp[:, :, :h, :w] = x
    w_qkv = w_qkv.reshape(3 * c, c)
    d = c // heads
    amap = np.zeros_like(xp)
    probs = np.zeros((b, rows, cols, heads, ws * ws, ws * ws))
    for n in range(b):
        for r in range(rows):
            for s in range(cols):
                win = (slice(r * ws, (r + 1) * ws), slice(s * ws, (s + 1) * ws))
                qkv = w_qkv @ xp[n, :, win[0], win[1]].reshape(c, ws * ws)
                for hd in range(heads):
                    lo, hi = hd * d, (hd + 1) * d
                    q, k, v = qkv[lo:hi], qkv[c + lo:c + hi], qkv[2 * c + lo:2 * c + hi]
                    p = naive_softmax(q.T @ k / np.sqrt(d), axis=-1)
                    probs[n, r, s, hd] = p
                    amap[n, lo:hi, win[0], win[1]] = (v @ p.T).reshape(d, ws, ws)
    out = np.zeros_like(xp)
    for r in range(rows):
        for s in range(cols):
            win = amap[:, :, r * ws:(r + 1) * ws, s * ws:(s + 1) * ws]
            out[:, :, r * ws:(r + 1) * ws, s * ws:(s + 1) * ws] = (
                win.mean(axis=2, keepdims=True) + win.mean(axis=3, keepdims=True))
    return out[:, :, :h, :w], probs


def naive_norm2d(x, gamma, beta, eps, g, groups=None, stats=None):
    """Normalization composed of elementary steps (mean, subtract, square,
    mean, add eps, sqrt, divide, scale, shift), with its adjoint taken back
    through each step in turn; the reference for ``ops.norm2d``.

    Statistics are per channel over (B, H, W) by default, per sample over
    each of ``groups`` channel groups, or the given per-channel
    ``stats=(mean, var)``. ``g`` is the output adjoint. Returns
    ``(out, mean, var, gx, g_gamma, g_beta)``.
    """
    b, c, h, w = x.shape
    if groups is None:
        xs, axes = x, (0, 2, 3)
    else:
        xs, axes = x.reshape(b, groups, -1), (2,)
    if stats is None:
        m = xs.mean(axis=axes, keepdims=True)
        centered = xs - m
        v = (centered * centered).mean(axis=axes, keepdims=True)
    else:
        m, v = (s.reshape(1, c, 1, 1) for s in stats)
        centered = xs - m
    std = np.sqrt(v + eps)
    xhat = (centered / std).reshape(x.shape)
    gam, bet = gamma.reshape(1, c, 1, 1), beta.reshape(1, c, 1, 1)
    out = xhat * gam + bet

    # Reverse sweep: out = xhat*gam + bet, xhat = centered/std,
    # std = sqrt(v + eps), v = mean(centered²), centered = xs - m, m = mean(xs).
    g_gamma = (g * xhat).sum(axis=(0, 2, 3))
    g_beta = g.sum(axis=(0, 2, 3))
    g_xhat = (g * gam).reshape(xs.shape)
    g_centered = g_xhat / std
    if stats is None:
        count = xs.size // m.size
        g_std = (-g_xhat * centered / (std * std)).sum(axis=axes, keepdims=True)
        g_v = g_std * 0.5 / std
        g_centered = g_centered + 2.0 * centered * g_v / count
        g_m = -g_centered.sum(axis=axes, keepdims=True)
        gx = g_centered + g_m / count
    else:
        gx = g_centered
    shape = (c,) if groups is None else (b, groups)
    return out, m.reshape(shape), v.reshape(shape), gx.reshape(x.shape), g_gamma, g_beta


def adamw_step(params, grads, m, v, t, lrs, lr_scale=1.0, weight_decay=1e-2,
               betas=(0.9, 0.999), eps=1e-8):
    """One AdamW step (Loshchilov & Hutter, 2019), one tensor at a time: the
    update ``training.AdamW.step`` made before it kept its state in flat
    buffers.

    ``params``, ``m`` and ``v`` map names to arrays; their entries are
    replaced by the updated arrays. ``grads`` maps names to gradients, a
    missing one counting as zero, ``lrs`` maps names to base learning rates
    and ``t`` is the 1-based step number.
    """
    beta1, beta2 = betas
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        lr = lrs[name] * lr_scale
        p = p * (1.0 - lr * weight_decay)
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        params[name] = p - lr * update


def put_along_axis_onehot(labels, k, dtype, ignore_label=255):
    """(B, k, H, W) one-hot targets of (B, H, W) integer labels, an ignored
    pixel counted as class 0: the builder ``training._prep_targets`` used
    before it compared the labels with ``arange(k)``.
    """
    keep = labels != ignore_label
    b, h, w = labels.shape
    safe = np.where(keep, labels, 0)
    onehot = np.zeros((b, k, h, w), dtype=dtype)
    np.put_along_axis(onehot, safe[:, None, :, :], 1.0, axis=1)
    return onehot

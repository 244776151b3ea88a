"""Registered gradient checks: each array forward/backward pair, the
encoders, the pre-training loss and step, and each head's fine-tuning
loss node."""

from __future__ import annotations

from functools import partial

import numpy as np

from .encoders import CvlpModel, LinguisticEncoder, VisualEncoder
from .gradcheck import GradCheckReport, check_gradients
from .head import HEADS, head_loss
from .pretrain import pretrain_loss, pretrain_step
from .tensor import (Tensor, cosine_sim_backward, cosine_sim_forward,
                     cross_entropy_backward, cross_entropy_forward, grad_node,
                     layer_norm_backward, layer_norm_forward, parameter,
                     softmax_backward, softmax_forward)


def random_head(rng, name, C, M, D, N=2):
    """(image embeddings, anchors, labels, parameters) of head `name` on
    N images, every parameter but the temperature off its init."""
    tau = parameter(np.array(float(rng.uniform(0.2, 0.8))))
    params = HEADS[name].params(D, C, tau, rng)
    for key, p in params.params().items():
        if not key.endswith("tau"):
            p.data = p.data + 0.1 * rng.normal(size=p.shape)
    return (rng.normal(size=(N, D)), rng.normal(size=(C, M, D)),
            rng.integers(0, C, size=N), params)


def head_loss_check(name, e_i, anchors, labels, params):
    """`head_loss` through head `name`: its gradients of the image
    embedding and of every head parameter against central differences."""
    head = HEADS[name]
    keys = head.keys(anchors)
    emb = Tensor(e_i.copy(), requires_grad=True)
    leaves = [emb, *params.params().values()]

    def loss():
        return head_loss(head, emb, anchors, keys, params, labels)

    loss().backward()
    return check_gradients(lambda: float(loss().data),
                           [t.data for t in leaves],
                           [t.grad.copy() for t in leaves])


def random_batch(rng, n):
    S = rng.normal(size=(n, n))
    labels = rng.integers(0, max(1, n - 1) + 1, size=n)
    S_teacher = rng.normal(size=(n, n))
    tau = float(rng.uniform(0.2, 0.8))
    return S, labels, S_teacher, tau


def pretrain_loss_check(S, S_teacher, labels, tau, lam):
    """`pretrain_loss`'s gradients of (S, tau) against central
    differences, with the teacher's temperature at 0.5."""
    S, tau = S.copy(), np.array(tau)
    grads = [np.empty(S.shape), np.empty(())]
    pretrain_loss(S, S_teacher, labels, tau, 0.5, lam).backward(grads)
    return check_gradients(
        lambda: pretrain_loss(S, S_teacher, labels, tau, 0.5, lam).value,
        [S, tau], grads)


def pair_check(forward, backward, arrays, w):
    """The gradients of `arrays` that `backward(cache, w, out)` writes
    for the upstream weight w against central differences of the
    w-weighted sum of the first output of `forward(*arrays)`, an
    (output, cache) pair."""
    grads = [np.empty(a.shape) for a in arrays]
    backward(forward(*arrays)[1], w, grads)
    return check_gradients(lambda: float((forward(*arrays)[0] * w).sum()),
                           arrays, grads)


def default_suite(seed: int, instances: int):
    """(name, thunk) pairs; each thunk returns a GradCheckReport."""
    rng = np.random.default_rng(seed)
    suite = []

    def softmax_check():
        x, w = rng.normal(size=5), rng.normal(size=5)
        return check_gradients(
            lambda: float((softmax_forward(x, 0) * w).sum()), [x],
            [softmax_backward(softmax_forward(x, 0), w, 0)])

    suite.append(("softmax", softmax_check))
    suite.append(("layer_norm", lambda: pair_check(
        layer_norm_forward, layer_norm_backward,
        [rng.normal(size=(2, 4)), rng.normal(size=4), rng.normal(size=4)],
        rng.normal(size=(2, 4)))))
    suite.append(("cosine_sim", lambda: pair_check(
        cosine_sim_forward, cosine_sim_backward,
        [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))],
        rng.normal(size=(3, 2)))))

    def cross_entropy_check():
        # through a softmax, so that the rows stay probability vectors
        # while the logits are perturbed
        z, y, w = rng.normal(size=(2, 3)), np.array([1, 0]), rng.uniform(1, 2)

        def loss():
            return w * cross_entropy_forward(softmax_forward(z, 1), y)[0]

        p = softmax_forward(z, 1)
        g_p = cross_entropy_backward(cross_entropy_forward(p, y)[1], w)
        return check_gradients(loss, [z], [softmax_backward(p, g_p, 1)])

    suite.append(("cross_entropy", cross_entropy_check))

    def linguistic_encoder():
        # sentences of lengths 2, 1 and 3; token 3 repeats within and
        # across sentences, token 4 is in none
        enc = LinguisticEncoder(5, 2, rng)
        seqs = [[3, 0], [3], [1, 2, 3]]
        enc.proj_b.data = rng.normal(size=2)
        return pair_check(lambda *_: enc.forward(seqs), enc.backward,
                          [p.data for p in enc.params().values()],
                          rng.normal(size=(3, 2)))

    suite.append(("linguistic_encoder", linguistic_encoder))

    def random_visual():
        # nonzero biases, so the tanh is not centred on the origin
        enc = VisualEncoder(4, 2, rng)
        enc.b1.data, enc.b2.data = rng.normal(size=4), rng.normal(size=2)
        return enc, rng.normal(size=(3, 4)), rng.normal(size=(3, 2))

    def visual_pair():
        enc, x, w = random_visual()
        return pair_check(lambda *_: enc.forward(x), enc.backward,
                          [p.data for p in enc.params().values()], w)

    def visual_node():
        # fine-tuning's first tape node, under a scalar node that
        # weights its output, through `Tensor.backward`
        enc, x, w = random_visual()
        params = list(enc.params().values())

        def loss():
            y = enc(x)
            return grad_node(float((y.data * w).sum()), (y,),
                             lambda g, out: np.multiply(g, w, out=out[0]))

        loss().backward()
        return check_gradients(lambda: float(loss().data),
                               [p.data for p in params],
                               [p.grad.copy() for p in params])

    suite.append(("visual_encoder", visual_pair))
    suite.append(("visual_encoder_node", visual_node))

    # two identical anchors of class 0 tie at the max for every image;
    # the tie shares the gradient instead of doubling it
    e_i, anchors, y_knn, knn = random_head(rng, "knn", 3, 2, 4)
    anchors[0, 1] = anchors[0, 0]
    suite.append(("L_rec∘knn_tie", partial(
        head_loss_check, "knn", e_i, anchors, y_knn, knn)))

    for i in range(instances):
        n = int(rng.integers(2, 7))
        S, labels, S_teacher, tau = random_batch(rng, n)

        # L_ccl and L_dis are pretrain_loss's ends, lam 1 and 0
        for name, lam in (("L_ccl", 1.0), ("L_dis", 0.0), ("L_pre", 0.5)):
            suite.append((f"{name}[{i}]", partial(
                pretrain_loss_check, S, S_teacher, labels, tau, lam)))

        C, M, D = int(rng.integers(2, 5)), int(rng.integers(1, 4)), 4
        for head in HEADS:
            suite.append((f"L_rec∘{head}[{i}]", partial(
                head_loss_check, head, *random_head(rng, head, C, M, D))))

        # the production pre-training step, on a model with d_img 3, D 2
        # and 5 tokens, its weights and biases all off their init
        model = CvlpModel(3, 2, 5, seed=i, tau_init=tau)
        for name, p in model.params().items():
            if name != "tau":
                p.data = p.data + rng.normal(size=p.shape)
        images = rng.normal(size=(n, 3))
        seqs = [rng.integers(0, 5, size=int(rng.integers(1, 4)))
                for _ in range(n)]

        def step(model=model, images=images, seqs=seqs, labels=labels,
                 St=S_teacher):
            def loss():
                return pretrain_step(model, images, seqs, labels, St,
                                     0.5, 0.5)[0]

            loss()
            params = list(model.params().values())
            return check_gradients(loss, [p.data for p in params],
                                   [p.grad.copy() for p in params])

        suite.append((f"pretrain_step[{i}]", step))
    return suite


def run_suite(suite) -> tuple[bool, list]:
    lines = []
    all_passed = True
    for name, thunk in suite:
        report: GradCheckReport = thunk()
        lines.append(f"{name}: {report}")
        all_passed &= report.passed
    return all_passed, lines

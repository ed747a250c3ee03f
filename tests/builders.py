"""Builders that only tests call: the gamma0 code length and the hv model
writer.  Test programs are written with machine.assemble."""

from indlab import hv


def gamma0_length(n: int) -> int:
    return 2 * (n + 1).bit_length() - 1


def save_model(path: str, model: hv.HVModel) -> None:
    with open(path, "w") as f:
        f.write(hv.model_to_json(model))
        f.write("\n")

"""Seeded API-hygiene violation (fixture corpus — never imported)."""


def risky(model):
    model.eval()
    result = model.run()
    model.train()
    return result

"""Graph-structural self-supervised pretraining corpora for knowledge
graphs and knowledge hypergraphs.

Each public name is imported from its own module, such as
``kgsignals.records`` or ``kgsignals.corpus``. Importing the package
loads none of them; numpy comes only with the generation code.
"""

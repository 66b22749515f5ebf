"""Cross-lingual emotion and trigger-word toolkit.

Builds pseudo-labelled target-language corpora by marker-based label
projection through machine translation, augments them with trigger-word
switching, trains desk-scale linear classifiers (optionally through
low-rank adapters) with AdamW, and scores predictions with the shared
task's three metrics.
"""

__version__ = "0.1.0"

from .corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusFormatError,
    DatasetTag,
    EmotionLabel,
    label_distribution,
    load_corpus,
    save_corpus,
    split_train_validation,
)
from .projection import (
    Discarded,
    DiscardReason,
    MarkedSentence,
    MarkerScheme,
    Projected,
    TriggerSpan,
    mark_sentence,
    project_corpus,
    project_labels,
    spans_from_mask,
)
from .augment import AlignedPair, CombinationSpec, build_dataset, switch_triggers
from .translate import (
    DictionaryBackend,
    IdentityBackend,
    TranslationCache,
    TranslationError,
    cache_key,
    translate_batch,
)
from .metrics import (
    Attributions,
    accumulated_importance,
    build_report,
    confusion_matrix,
    corpus_token_f1,
    instance_token_f1,
    macro_f1,
    normalize_attributions,
)
from .training import TrainConfig, TrainedModel, load_model, save_model, train

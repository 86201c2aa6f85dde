"""The paper's reported numbers (Tables II-V) for side-by-side reporting.

These constants are transcriptions of the result tables in the paper and are
used only for comparison and shape checks (who wins, by roughly what factor);
the reproduction's absolute numbers come from the synthetic scaled-down
datasets and are not expected to match them.
"""

from __future__ import annotations

# Table II — ranking (HR@K / NDCG@K for K = 5, 10, 20)
TABLE2_RANKING = {
    "gowalla": {
        "FM": {"HR@5": 0.232, "HR@10": 0.318, "HR@20": 0.419,
               "NDCG@5": 0.158, "NDCG@10": 0.187, "NDCG@20": 0.211},
        "Wide&Deep": {"HR@5": 0.288, "HR@10": 0.401, "HR@20": 0.532,
                      "NDCG@5": 0.199, "NDCG@10": 0.238, "NDCG@20": 0.267},
        "DeepCross": {"HR@5": 0.273, "HR@10": 0.379, "HR@20": 0.505,
                      "NDCG@5": 0.182, "NDCG@10": 0.204, "NDCG@20": 0.241},
        "NFM": {"HR@5": 0.286, "HR@10": 0.395, "HR@20": 0.525,
                "NDCG@5": 0.199, "NDCG@10": 0.236, "NDCG@20": 0.264},
        "AFM": {"HR@5": 0.295, "HR@10": 0.407, "HR@20": 0.534,
                "NDCG@5": 0.204, "NDCG@10": 0.242, "NDCG@20": 0.270},
        "SASRec": {"HR@5": 0.310, "HR@10": 0.424, "HR@20": 0.559,
                   "NDCG@5": 0.209, "NDCG@10": 0.253, "NDCG@20": 0.285},
        "TFM": {"HR@5": 0.307, "HR@10": 0.430, "HR@20": 0.556,
                "NDCG@5": 0.216, "NDCG@10": 0.256, "NDCG@20": 0.283},
        "SeqFM": {"HR@5": 0.345, "HR@10": 0.467, "HR@20": 0.603,
                  "NDCG@5": 0.243, "NDCG@10": 0.283, "NDCG@20": 0.316},
    },
    "foursquare": {
        "FM": {"HR@5": 0.241, "HR@10": 0.303, "HR@20": 0.433,
               "NDCG@5": 0.169, "NDCG@10": 0.201, "NDCG@20": 0.217},
        "Wide&Deep": {"HR@5": 0.233, "HR@10": 0.317, "HR@20": 0.422,
                      "NDCG@5": 0.165, "NDCG@10": 0.192, "NDCG@20": 0.218},
        "DeepCross": {"HR@5": 0.282, "HR@10": 0.355, "HR@20": 0.492,
                      "NDCG@5": 0.198, "NDCG@10": 0.210, "NDCG@20": 0.229},
        "NFM": {"HR@5": 0.239, "HR@10": 0.325, "HR@20": 0.435,
                "NDCG@5": 0.170, "NDCG@10": 0.198, "NDCG@20": 0.225},
        "AFM": {"HR@5": 0.279, "HR@10": 0.379, "HR@20": 0.504,
                "NDCG@5": 0.199, "NDCG@10": 0.212, "NDCG@20": 0.233},
        "SASRec": {"HR@5": 0.266, "HR@10": 0.350, "HR@20": 0.467,
                   "NDCG@5": 0.175, "NDCG@10": 0.204, "NDCG@20": 0.216},
        "TFM": {"HR@5": 0.283, "HR@10": 0.390, "HR@20": 0.512,
                "NDCG@5": 0.203, "NDCG@10": 0.223, "NDCG@20": 0.248},
        "SeqFM": {"HR@5": 0.324, "HR@10": 0.431, "HR@20": 0.554,
                  "NDCG@5": 0.227, "NDCG@10": 0.262, "NDCG@20": 0.293},
    },
}

# Table III — classification (AUC / RMSE)
TABLE3_CLASSIFICATION = {
    "trivago": {
        "FM": {"AUC": 0.729, "RMSE": 0.564},
        "Wide&Deep": {"AUC": 0.782, "RMSE": 0.529},
        "DeepCross": {"AUC": 0.845, "RMSE": 0.433},
        "NFM": {"AUC": 0.767, "RMSE": 0.537},
        "AFM": {"AUC": 0.811, "RMSE": 0.465},
        "DIN": {"AUC": 0.923, "RMSE": 0.338},
        "xDeepFM": {"AUC": 0.913, "RMSE": 0.350},
        "SeqFM": {"AUC": 0.957, "RMSE": 0.319},
    },
    "taobao": {
        "FM": {"AUC": 0.602, "RMSE": 0.597},
        "Wide&Deep": {"AUC": 0.629, "RMSE": 0.590},
        "DeepCross": {"AUC": 0.735, "RMSE": 0.391},
        "NFM": {"AUC": 0.616, "RMSE": 0.583},
        "AFM": {"AUC": 0.656, "RMSE": 0.544},
        "DIN": {"AUC": 0.781, "RMSE": 0.375},
        "xDeepFM": {"AUC": 0.804, "RMSE": 0.363},
        "SeqFM": {"AUC": 0.826, "RMSE": 0.335},
    },
}

# Table IV — regression (MAE / RRSE)
TABLE4_REGRESSION = {
    "beauty": {
        "FM": {"MAE": 1.067, "RRSE": 1.125},
        "Wide&Deep": {"MAE": 0.965, "RRSE": 1.090},
        "DeepCross": {"MAE": 0.949, "RRSE": 1.003},
        "NFM": {"MAE": 0.931, "RRSE": 0.986},
        "AFM": {"MAE": 0.945, "RRSE": 0.994},
        "RRN": {"MAE": 0.943, "RRSE": 0.989},
        "HOFM": {"MAE": 0.952, "RRSE": 1.054},
        "SeqFM": {"MAE": 0.890, "RRSE": 0.975},
    },
    "toys": {
        "FM": {"MAE": 0.778, "RRSE": 1.023},
        "Wide&Deep": {"MAE": 0.753, "RRSE": 0.989},
        "DeepCross": {"MAE": 0.761, "RRSE": 1.010},
        "NFM": {"MAE": 0.735, "RRSE": 0.981},
        "AFM": {"MAE": 0.741, "RRSE": 0.997},
        "RRN": {"MAE": 0.739, "RRSE": 0.983},
        "HOFM": {"MAE": 0.748, "RRSE": 1.001},
        "SeqFM": {"MAE": 0.704, "RRSE": 0.956},
    },
}

# Table V — ablation (HR@10 for ranking, AUC for classification, MAE for regression)
TABLE5_ABLATION = {
    "Default": {"gowalla": 0.467, "foursquare": 0.431, "trivago": 0.957,
                "taobao": 0.826, "beauty": 0.890, "toys": 0.704},
    "Remove SV": {"gowalla": 0.455, "foursquare": 0.420, "trivago": 0.892,
                  "taobao": 0.765, "beauty": 0.959, "toys": 0.762},
    "Remove DV": {"gowalla": 0.424, "foursquare": 0.396, "trivago": 0.862,
                  "taobao": 0.731, "beauty": 0.972, "toys": 0.772},
    "Remove CV": {"gowalla": 0.430, "foursquare": 0.404, "trivago": 0.963,
                  "taobao": 0.754, "beauty": 0.935, "toys": 0.763},
    "Remove RC": {"gowalla": 0.457, "foursquare": 0.431, "trivago": 0.898,
                  "taobao": 0.761, "beauty": 0.918, "toys": 0.719},
    "Remove LN": {"gowalla": 0.461, "foursquare": 0.423, "trivago": 0.933,
                  "taobao": 0.798, "beauty": 0.922, "toys": 0.720},
}

# Table I — dataset statistics
TABLE1_DATASETS = {
    "gowalla": {"task": "ranking", "instances": 1_865_119, "users": 34_796,
                "objects": 57_445, "features": 149_686},
    "foursquare": {"task": "ranking", "instances": 1_196_248, "users": 24_941,
                   "objects": 28_593, "features": 82_127},
    "trivago": {"task": "classification", "instances": 2_810_584, "users": 12_790,
                "objects": 45_195, "features": 103_180},
    "taobao": {"task": "classification", "instances": 1_970_133, "users": 37_398,
               "objects": 65_474, "features": 168_346},
    "beauty": {"task": "regression", "instances": 198_503, "users": 22_363,
               "objects": 12_101, "features": 46_565},
    "toys": {"task": "regression", "instances": 167_597, "users": 19_412,
             "objects": 11_924, "features": 50_748},
}

# Figure 4 — training time (×10³ s) vs. data proportion on Trivago.
FIGURE4_SCALABILITY = {0.2: 0.51, 0.4: 1.07, 0.6: 1.66, 0.8: 2.24, 1.0: 2.79}

# Hyper-parameter grids explored in Figure 3.
FIGURE3_GRIDS = {
    "embed_dim": [8, 16, 32, 64, 128],
    "ffn_layers": [1, 2, 3, 4, 5],
    "max_seq_len": [10, 20, 30, 40, 50],
    "dropout": [0.5, 0.6, 0.7, 0.8, 0.9],
}

SELECT 'request' FROM (SELECT ? AS policy_id) AS ApplicablePolicy
